// Command vbisweep runs a design-space sweep through the experiment
// harness and emits the result matrix. Sweep axes are (system or
// hetero-memory/policy) × (workload or multiprogrammed bundle) × seed ×
// named parameter overlays × refs; grids come from flags or a small JSON
// config. Runs execute across a bounded worker pool, and an optional
// on-disk cache makes re-runs incremental (only changed cells simulate).
//
// Usage:
//
//	vbisweep -systems Native,VBI-Full -workloads mcf,graph500 -refs 100000
//	vbisweep -systems Native -workloads mcf -param l2_tlb_entries=128,512,2048
//	vbisweep -systems VBI-Full -workloads mcf -refs 50000,100000,200000
//	vbisweep -systems Native,VBI-Full -bundle wl1,wl2,pair=mcf+graph500 -refs 100000
//	vbisweep -hetero PCM-DRAM -policies Unaware,VBI -workloads sphinx3 -param hetero_epoch_refs=10000,25000
//	vbisweep -config grid.json -workers 8 -cache .vbicache -csv out.csv -json out.json
//	vbisweep -config grid.json -remote 10.0.0.7:9471,10.0.0.8:9471 -cache .vbicache
//	vbisweep -config grid.json -remote 10.0.0.7:9471 -auth-token secret -cache .vbicache
//	vbisweep -cache .vbicache -cache-stats
//	vbisweep -list
//
// -bundle adds multiprogrammed rows (one core per workload) alongside any
// -workloads rows: each entry is a predefined Table 2 bundle name ("wl1")
// or an inline definition "name=app1+app2+..." (see -list). Bundles sweep
// like any other axis — cross-producted with systems, seeds, refs and
// parameter overlays — but conflict with -hetero, whose jobs are
// single-core. A bundle cell's matrix value aggregates across cores
// (ipc: total throughput, dram: total accesses).
//
// -remote shards the expanded job batch across vbiworker daemons
// (internal/dist): results merge positionally and every completed shard
// lands in -cache, so the matrix is byte-identical to a local run and an
// interrupted sweep resumes incrementally. The list is the whole fleet:
// every endpoint that passes the version handshake serves the sweep, a
// worker that fails is dropped (its shards requeued), and nothing joins
// mid-sweep. -auth-token (or $VBI_AUTH_TOKEN) is sent to every worker,
// and the -tls-cert/-tls-key/-tls-ca flags dial them over TLS (mTLS when
// the workers demand it; see DESIGN.md §5). To resume a sweep that was
// interrupted or killed, re-run it with the same -cache: every job that
// finished is served from the cache and only the rest run, on whichever
// workers the -remote list names then. -cache-stats and -cache-prune inspect and clean the cache
// directory without running anything.
//
// -param may repeat; each occurrence adds one axis and the grid expands
// the cross product. Parameter names come from the system spec registry
// (-list shows them with their Table 1 defaults); system names resolve
// registered specs, so declaratively registered variants (e.g.
// "Native-128TLB") sweep like built-ins. A config file holds the same
// axes as the flags — plus inline variant-spec definitions ("specs") and
// a base parameter overlay ("overlay") — and cannot be combined with
// them:
//
//	{"systems": ["Native", "Native-128TLB"], "workloads": ["mcf"],
//	 "seeds": [1, 2], "refs": 100000,
//	 "bundles": [{"name": "wl1"}, {"name": "pair", "workloads": ["mcf", "graph500"]}],
//	 "specs": [{"name": "Native-128TLB", "base": "Native",
//	            "params": {"l2_tlb_entries": 128}}],
//	 "params": {"l2_tlb_entries": [256, 512]}}
//
// Expanded jobs are self-describing (they carry their resolved system
// spec), so a -config sweep defining variant specs runs unchanged on a
// -remote worker fleet: the workers never need the definitions.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"vbi/internal/dist"
	"vbi/internal/harness"
	"vbi/internal/obs"
	"vbi/internal/stats"
	"vbi/internal/workloads"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var fe flagError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, &fe):
		// The flag set has already printed the error and the usage.
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "vbisweep:", err)
		os.Exit(1)
	}
}

// flagError is a malformed command line; main exits 2 for it, as
// flag.Parse would.
type flagError struct{ error }

// run parses args, runs the sweep they describe and writes the matrix
// and the run summary to stdout; progress and fleet lines go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vbisweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	params := harness.ParamAxes{}
	tlsOpts := &dist.TLSOptions{}
	fleetOpts := &dist.FleetOptions{}
	logOpts := &obs.LogOptions{}
	var (
		systemsF   = fs.String("systems", "", "comma-separated system/spec names (default Native,VBI-Full; see -list)")
		workloadsF = fs.String("workloads", "", "comma-separated workload names (default mcf,graph500 unless -bundle is given; see -list)")
		bundlesF   = fs.String("bundle", "", "comma-separated multiprogrammed bundles: a Table 2 name (wl1) or name=app1+app2+... (see -list)")
		seedsF     = fs.String("seeds", "", "comma-separated trace seeds (default 1)")
		refsF      = fs.String("refs", "", "measured references per run; a comma list sweeps refs as an axis (default 100000)")
		heteroF    = fs.String("hetero", "", "comma-separated heterogeneous memories (replaces -systems; see -list)")
		policiesF  = fs.String("policies", "", "comma-separated placement policies for -hetero (default all; see -list)")
		config     = fs.String("config", "", "JSON grid config (exclusive with the axis flags)")
		workers    = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir   = fs.String("cache", "", "result-cache directory (empty = no cache)")
		cacheStats = fs.Bool("cache-stats", false, "print entry/byte/version stats for -cache and exit")
		cachePrune = fs.Bool("cache-prune", false, "delete -cache entries from other schema versions and exit")
		metric     = fs.String("metric", harness.MetricIPC, "matrix metric: "+strings.Join(harness.Metrics(), " or "))
		jsonOut    = fs.String("json", "", "write the matrix as JSON to this file")
		csvOut     = fs.String("csv", "", "write the matrix as CSV to this file")
		list       = fs.Bool("list", false, "list systems, specs, workloads, memories, policies and parameters")
		verbose    = fs.Bool("v", false, "log every run")
		versionF   = fs.Bool("version", false, "print protocol and harness versions, then exit")
	)
	fs.Var(params, "param", "parameter axis name=v1,v2,... (repeatable; see -list)")
	tlsOpts.Flags(fs)
	fleetOpts.Flags(fs)
	logOpts.Flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return flagError{err}
	}

	if *versionF {
		fmt.Fprintln(stdout, dist.VersionLine("vbisweep"))
		return nil
	}
	logger, err := logOpts.New(stderr)
	if err != nil {
		return err
	}

	if *list {
		printList(stdout)
		return nil
	}

	if *cacheStats || *cachePrune {
		if *cacheDir == "" {
			return fmt.Errorf("-cache-stats/-cache-prune need -cache")
		}
		return maintainCache(stdout, &harness.Cache{Dir: *cacheDir}, *cachePrune)
	}

	if err := harness.ValidateMetric(*metric); err != nil {
		return err
	}

	var grid harness.Grid
	if *config != "" {
		// The axis flags silently losing to -config was a footgun; make
		// the conflict explicit.
		axisFlags := map[string]bool{
			"systems": true, "workloads": true, "seeds": true, "refs": true,
			"param": true, "hetero": true, "policies": true, "bundle": true,
		}
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			if axisFlags[f.Name] {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-config is exclusive with the axis flags (%s); put the axes in the config file",
				strings.Join(conflict, ", "))
		}
		g, err := harness.LoadGrid(*config)
		if err != nil {
			return err
		}
		grid = g
		if grid.Refs == 0 && len(grid.RefsAxis) == 0 {
			grid.Refs = 100_000
		}
	} else {
		seeds, err := parseSeeds(orDefault(*seedsF, "1"))
		if err != nil {
			return err
		}
		refsAxis, err := parseInts(orDefault(*refsF, "100000"))
		if err != nil {
			return fmt.Errorf("bad -refs: %w", err)
		}
		bundles, err := harness.ParseBundles(*bundlesF)
		if err != nil {
			return err
		}
		// A bundle-only sweep should not silently grow default single-core
		// rows; -workloads still adds them explicitly.
		workloadDefault := "mcf,graph500"
		if len(bundles) > 0 {
			workloadDefault = ""
		}
		grid = harness.Grid{
			Workloads: splitList(orDefault(*workloadsF, workloadDefault)),
			Bundles:   bundles,
			Seeds:     seeds,
			RefsAxis:  refsAxis,
			Params:    params,
		}
		if *heteroF != "" {
			if *systemsF != "" {
				return fmt.Errorf("-hetero replaces -systems; give one or the other")
			}
			if len(bundles) > 0 {
				return fmt.Errorf("-bundle conflicts with -hetero: bundles are multiprogrammed, heterogeneous jobs are single-core")
			}
			grid.HeteroMems = splitList(*heteroF)
			grid.Policies = splitList(*policiesF)
		} else {
			if *policiesF != "" {
				return fmt.Errorf("-policies only applies to -hetero grids")
			}
			grid.Systems = splitList(orDefault(*systemsF, "Native,VBI-Full"))
		}
	}

	jobs, err := grid.Jobs()
	if err != nil {
		return err
	}

	runner := &harness.Runner{Workers: *workers}
	if *cacheDir != "" {
		runner.Cache = &harness.Cache{Dir: *cacheDir}
	}
	if *verbose {
		runner.Progress = stderr
	}
	exec, err := fleetOpts.Coordinator(tlsOpts, runner, logger)
	if err != nil {
		return err
	}
	// Ctrl-C stops feeding the pool: in-flight jobs finish and cached
	// results stay, so the next invocation resumes from there. Once
	// cancelled the handler unregisters, so a second Ctrl-C kills the
	// process instead of waiting out the in-flight simulations.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	results, err := exec.Run(ctx, jobs)
	if err != nil {
		return err
	}

	t, err := grid.Matrix(results, *metric)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, t.Render())

	cached := 0
	for _, r := range results {
		if r.Cached {
			cached++
		}
	}
	fmt.Fprintf(stdout, "\n%d runs (%d simulated, %d from cache)\n",
		len(results), len(results)-cached, cached)
	return writeTable(t, *jsonOut, *csvOut)
}

// writeTable writes the matrix to the -json and -csv files that are set.
func writeTable(t *stats.Table, jsonOut, csvOut string) error {
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{{jsonOut, t.WriteJSON}, {csvOut, t.WriteCSV}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		if err := out.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// maintainCache implements -cache-stats and -cache-prune.
func maintainCache(stdout io.Writer, cache *harness.Cache, prune bool) error {
	st, err := cache.Stats()
	if err != nil {
		return err
	}
	if prune {
		// Say what is about to go before deleting anything: stale entries
		// and their bytes come from the same Stats scan the -cache-stats
		// report uses.
		staleEntries, staleBytes := st.Stale(harness.Version)
		fmt.Fprintf(stdout, "pruning %d stale entries (%d bytes) not matching %s\n",
			staleEntries, staleBytes, harness.Version)
		removed, err := cache.Prune(harness.Version)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "pruned %d entries\n", removed)
		// Re-scan for the closing report: what is actually on disk after
		// the mutation, not an inference from the pre-prune scan.
		if st, err = cache.Stats(); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "cache %s: %d entries, %d bytes\n", cache.Dir, st.Entries, st.Bytes)
	versions := make([]string, 0, len(st.Versions))
	for v := range st.Versions {
		versions = append(versions, v)
	}
	sort.Strings(versions)
	for _, v := range versions {
		note := ""
		if v != harness.Version {
			note = "  (stale: -cache-prune reclaims)"
		}
		fmt.Fprintf(stdout, "  %-20s %d%s\n", v, st.Versions[v], note)
	}
	return nil
}

// printList enumerates everything a sweep axis can name.
func printList(w io.Writer) {
	harness.WriteSpecList(w)
	fmt.Fprintln(w, "workloads:")
	for _, n := range workloads.Names() {
		fmt.Fprintf(w, "  %s\n", n)
	}
	harness.WriteBundleList(w)
	harness.WriteHeteroList(w)
	harness.WriteParamList(w)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, p := range splitList(s) {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
