// Package exp drives the paper's experiments: one function per table and
// figure of the evaluation (§7), each returning a stats.Table with the same
// rows and series the paper plots. The cmd/vbibench binary and the
// top-level benchmarks call these.
//
// Every figure function expands into independent harness jobs and executes
// them through internal/harness: runs proceed across a bounded worker pool
// (Options.Workers, default GOMAXPROCS) and, when Options.CacheDir is set,
// unchanged runs are served from the on-disk result cache. Aggregation is
// positional over the job list, so the rendered tables are identical for
// any worker count.
package exp

import (
	"context"
	"fmt"
	"io"

	"vbi/internal/harness"
	"vbi/internal/stats"
	"vbi/internal/system"
	"vbi/internal/workloads"
)

// Options configures a reproduction run.
type Options struct {
	// Refs is the measured reference count per workload (default 400k;
	// the paper uses 1B-instruction Pin regions — see DESIGN.md for the
	// scaling rationale).
	Refs int
	// Seed selects the trace streams.
	Seed uint64
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// CacheDir, when non-empty, enables the on-disk result cache there.
	CacheDir string
	// Params overlays tunable hardware/OS knobs on every run of the
	// experiment (vbibench -param), regenerating the figures under an
	// altered configuration; zero fields keep Table 1 defaults.
	Params system.Params
	// Executor, when non-nil, replaces the local worker pool for every
	// figure's job batch (vbibench -remote wires a dist.Coordinator here).
	// When nil, a local harness.Runner is built from Workers/CacheDir/
	// Progress. Positional aggregation makes the figures identical either
	// way.
	Executor harness.Executor
	// Context, when non-nil, cancels every figure's job batch (vbibench
	// wires its signal context here, so Ctrl-C stops a figure at job
	// granularity with completed work cached). Nil means
	// context.Background().
	Context context.Context
}

// ctx returns the configured context, defaulted.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) withDefaults() Options {
	if o.Refs == 0 {
		o.Refs = 400_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// exec returns the executor the figure functions share: the configured
// Executor, or a local harness runner.
func (o Options) exec() harness.Executor {
	if o.Executor != nil {
		return o.Executor
	}
	var cache *harness.Cache
	if o.CacheDir != "" {
		cache = &harness.Cache{Dir: o.CacheDir}
	}
	return &harness.Runner{Workers: o.Workers, Progress: o.Progress, Cache: cache}
}

// runKey identifies one single-core run within a figure.
type runKey struct {
	kind    system.Kind
	app     string
	uniform bool
}

// runSingles executes one harness job per key (deduplicated, preserving
// first occurrence) and returns the results keyed back.
func runSingles(o Options, keys []runKey) (map[runKey]system.RunResult, error) {
	seen := map[runKey]bool{}
	var uniq []runKey
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, k)
		}
	}
	jobs := make([]harness.Job, len(uniq))
	for i, k := range uniq {
		jobs[i] = harness.Job{
			Spec: system.MustSpec(k.kind.String()), Workloads: []string{k.app},
			Refs: o.Refs, Seed: o.Seed, UniformTables: k.uniform,
			Params: o.Params,
		}
	}
	results, err := o.exec().Run(o.ctx(), jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[runKey]system.RunResult, len(uniq))
	for i, k := range uniq {
		out[k] = results[i].Results[0]
	}
	return out, nil
}

// crossKeys expands apps × ([base] + series) into run keys.
func crossKeys(base system.Kind, series []system.Kind, apps []string) []runKey {
	var keys []runKey
	for _, app := range apps {
		keys = append(keys, runKey{kind: base, app: app})
		for _, k := range series {
			keys = append(keys, runKey{kind: k, app: app})
		}
	}
	return keys
}

// appendAverages adds AVG (and optionally AVG-no-mcf) rows to a speedup
// table whose per-app values are already present.
func appendAverages(t *stats.Table, apps []string, noMcf bool) {
	t.Rows = append(t.Rows, "AVG")
	if noMcf {
		t.Rows = append(t.Rows, "AVG-no-mcf")
	}
	for i := range t.Series {
		vals := t.Series[i].Values
		var all, rest []float64
		for j, app := range apps {
			all = append(all, vals[j])
			if app != "mcf" {
				rest = append(rest, vals[j])
			}
		}
		t.Series[i].Values = append(t.Series[i].Values, stats.Mean(all))
		if noMcf {
			t.Series[i].Values = append(t.Series[i].Values, stats.Mean(rest))
		}
	}
}

// Fig6 reproduces Figure 6: single-core performance of the 4 KB-page
// systems, normalized to Native.
func Fig6(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	apps := workloads.Fig6Apps
	t := &stats.Table{
		Title: "Figure 6: performance with 4 KB pages (normalized to Native)",
		Rows:  append([]string{}, apps...),
	}
	series := []system.Kind{system.Virtual, system.VIVT, system.VBI1,
		system.VBI2, system.VBIFull, system.PerfectTLB}
	runs, err := runSingles(o, crossKeys(system.Native, series, apps))
	if err != nil {
		return nil, err
	}
	for _, app := range apps {
		base := runs[runKey{kind: system.Native, app: app}]
		for _, k := range series {
			t.Add(k.String(), runs[runKey{kind: k, app: app}].IPC/base.IPC)
		}
	}
	appendAverages(t, apps, true)
	return t, nil
}

// Fig7 reproduces Figure 7: performance with large pages, normalized to
// Native-2M. The displayed rows are the paper's subset; the averages are
// computed over all Figure 6 applications (§7.2.2).
func Fig7(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	apps := workloads.Fig6Apps // averages span the full set
	t := &stats.Table{
		Title: "Figure 7: performance with large pages (normalized to Native-2M)",
		Rows:  append([]string{}, workloads.Fig7Apps...),
	}
	series := []system.Kind{system.Virtual2M, system.EnigmaHW2M,
		system.VBIFull, system.PerfectTLB}
	runs, err := runSingles(o, crossKeys(system.Native2M, series, apps))
	if err != nil {
		return nil, err
	}
	speedup := func(k system.Kind, app string) float64 {
		base := runs[runKey{kind: system.Native2M, app: app}]
		return runs[runKey{kind: k, app: app}].IPC / base.IPC
	}
	for _, app := range workloads.Fig7Apps {
		for _, k := range series {
			t.Add(k.String(), speedup(k, app))
		}
	}
	t.Rows = append(t.Rows, "AVG", "AVG-no-mcf")
	for _, k := range series {
		var all, rest []float64
		for _, app := range apps {
			v := speedup(k, app)
			all = append(all, v)
			if app != "mcf" {
				rest = append(rest, v)
			}
		}
		t.Add(k.String(), stats.Mean(all))
		t.Add(k.String(), stats.Mean(rest))
	}
	return t, nil
}

// fig8Series is Figure 8's displayed series order (Native, the
// normalization baseline, runs too but is not displayed).
var fig8Series = []system.Kind{system.Native2M, system.Virtual, system.Virtual2M,
	system.VBIFull, system.PerfectTLB}

// fig8Grid declares Figure 8's quad-core runs as an ordinary bundle-axis
// grid: rows are the Table 2 bundles, series the evaluated kinds. A
// vbisweep sweep over the same axes expands the exact same jobs (and so
// shares cache entries with the figure).
func fig8Grid(o Options) harness.Grid {
	kinds := append([]system.Kind{system.Native}, fig8Series...)
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	bundles := make([]harness.Bundle, len(workloads.BundleNames))
	for i, n := range workloads.BundleNames {
		bundles[i] = harness.Bundle{Name: n}
	}
	g := harness.Grid{
		Systems: names,
		Bundles: bundles,
		Seeds:   []uint64{o.Seed},
		Refs:    o.Refs,
	}
	if !o.Params.IsZero() {
		g.Overlay = &o.Params
	}
	return g
}

// Fig8 reproduces Figure 8: quad-core weighted speedup over the Table 2
// bundles, normalized to Native.
func Fig8(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	t := &stats.Table{
		Title: "Figure 8: multiprogrammed performance (weighted speedup normalized to Native)",
		Rows:  append([]string{}, workloads.BundleNames...),
	}
	// Alone-run IPCs (single-core Native) for the weighted-speedup
	// denominators, plus one quad-core job per (kind, bundle) from the
	// bundle grid — all submitted as a single harness batch per group.
	var aloneKeys []runKey
	for _, name := range workloads.BundleNames {
		for _, app := range workloads.Bundles[name] {
			aloneKeys = append(aloneKeys, runKey{kind: system.Native, app: app})
		}
	}
	alone, err := runSingles(o, aloneKeys)
	if err != nil {
		return nil, err
	}
	series := fig8Series
	kinds := append([]system.Kind{system.Native}, series...)
	jobs, err := fig8Grid(o).Jobs()
	if err != nil {
		return nil, err
	}
	results, err := o.exec().Run(o.ctx(), jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, name := range workloads.BundleNames {
		apps := workloads.Bundles[name]
		ws := make(map[system.Kind]float64, len(kinds))
		for _, k := range kinds {
			var shared, aloneIPC []float64
			for c, r := range results[i].Results {
				shared = append(shared, r.IPC)
				aloneIPC = append(aloneIPC, alone[runKey{kind: system.Native, app: apps[c]}].IPC)
			}
			ws[k] = stats.WeightedSpeedup(shared, aloneIPC)
			o.logf("  %-14s %-6s WS=%.3f", k, name, ws[k])
			i++
		}
		for _, k := range series {
			t.Add(k.String(), ws[k]/ws[system.Native])
		}
	}
	// AVG row.
	t.Rows = append(t.Rows, "AVG")
	for i := range t.Series {
		t.Series[i].Values = append(t.Series[i].Values, stats.Mean(t.Series[i].Values))
	}
	return t, nil
}

// figHetero implements Figures 9 and 10: speedup of the VBI placement (and
// the IDEAL oracle) over the hotness-unaware mapping.
func figHetero(mem system.HeteroMem, title, vbiLabel string, o Options) (*stats.Table, error) {
	o = o.withDefaults()
	apps := workloads.HeteroApps
	t := &stats.Table{Title: title, Rows: append([]string{}, apps...)}
	policies := []system.Policy{system.PolicyUnaware, system.PolicyVBI, system.PolicyIdeal}
	var jobs []harness.Job
	for _, app := range apps {
		for _, pol := range policies {
			jobs = append(jobs, harness.Job{
				Workloads: []string{app}, Refs: o.Refs, Seed: o.Seed,
				HeteroMem: mem.String(), Policy: pol.String(), Params: o.Params,
			})
		}
	}
	results, err := o.exec().Run(o.ctx(), jobs)
	if err != nil {
		return nil, err
	}
	for i := range apps {
		base := results[i*len(policies)].Results[0]
		vbi := results[i*len(policies)+1].Results[0]
		ideal := results[i*len(policies)+2].Results[0]
		t.Add(vbiLabel, vbi.IPC/base.IPC)
		t.Add("IDEAL", ideal.IPC/base.IPC)
	}
	appendAverages(t, apps, false)
	return t, nil
}

// Fig9 reproduces Figure 9 (PCM–DRAM hybrid memory).
func Fig9(o Options) (*stats.Table, error) {
	return figHetero(system.HeteroPCMDRAM,
		"Figure 9: VBI PCM-DRAM (normalized to hotness-unaware mapping)",
		"VBI PCM-DRAM", o)
}

// Fig10 reproduces Figure 10 (TL-DRAM).
func Fig10(o Options) (*stats.Table, error) {
	return figHetero(system.HeteroTLDRAM,
		"Figure 10: VBI TL-DRAM (normalized to hotness-unaware mapping)",
		"VBI TL-DRAM", o)
}

// Table1 renders the simulation configuration (Table 1 of the paper).
func Table1() string {
	return `Table 1: Simulation configuration
=================================
CPU              4-wide issue, OOO window (128-entry ROB), 10 MSHRs
L1 Cache         32 KB, 8-way associative, 4 cycles
L2 Cache         256 KB, 8-way associative, 8 cycles
L3 Cache         8 MB (2 MB per-core), 16-way associative, 31 cycles
L1 DTLB          4 KB pages: 64-entry, fully associative
                 2 MB pages: 32-entry, fully associative
L2 DTLB          4 KB and 2 MB pages: 512-entry, 4-way associative
Page Walk Cache  32-entry, fully associative
DRAM             DDR3-1600, 1 channel, 1 rank/channel, 8 banks/rank, open-page
DRAM Timing      tRCD=5cy, tRP=5cy (plus CL=5, burst 4)
PCM              PCM-800, 1 channel, 1 rank/channel, 8 banks/rank
PCM Timing       tRCD=22cy, tRP=60cy (plus write recovery 90cy)
`
}

// Table2 renders the multiprogrammed bundles (Table 2 of the paper).
func Table2() string {
	out := "Table 2: Multiprogrammed workload bundles\n"
	out += "=========================================\n"
	for _, name := range workloads.BundleNames {
		out += fmt.Sprintf("%-5s", name)
		for _, app := range workloads.Bundles[name] {
			out += fmt.Sprintf(" %-14s", app)
		}
		out += "\n"
	}
	return out
}
