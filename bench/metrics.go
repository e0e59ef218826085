package bench

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"vbi/internal/system"
)

// A metricDef names one metric: its unit and which direction is better.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// A Metric is one measured value, summarized over Samples passes, with
// the extremes of the per-pass values; Min and Max equal Value for a
// value that is not taken pass by pass.
type Metric struct {
	Name    string  `json:"metric"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

// endToEnd are the metrics a user of the simulator sees, measured on
// untraced passes. Host times are calibrated (calibrate.go), which cancels
// most of a shared host's slow-downs; the wall.* metrics of perLayer are
// the uncalibrated values.
var endToEnd = []metricDef{
	{"refs_per_s", "refs/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"allocs_per_kref", "allocs/kref", "lower"},
}

// simCounts are the simulated-work metrics, per measured kref: exact
// functions of the seed and matrix, so a change meant only to speed up
// the simulator leaves them identical.
var simCounts = []struct {
	name  string
	count func(system.RunResult) uint64
}{
	{"sim.tlb.misses_per_kref", func(r system.RunResult) uint64 { return r.Phases().TLB }},
	{"sim.pwc.lookups_per_kref", func(r system.RunResult) uint64 { return r.Phases().PWC }},
	{"sim.walk.accesses_per_kref", func(r system.RunResult) uint64 { return r.Phases().Walk }},
	{"sim.dram.accesses_per_kref", dramAccesses},
	{"sim.mtl.translations_per_kref", extra("mtl.translations")},
	{"sim.cvt.misses_per_kref", extra("cvt.misses")},
	{"sim.mtl.zero_lines_per_kref", extra("mtl.zero.lines")},
	{"sim.mtl.region_allocs_per_kref", extra("mtl.region.allocs")},
	{"sim.os.faults_per_kref", extra("os.faults")},
}

func extra(key string) func(system.RunResult) uint64 {
	return func(r system.RunResult) uint64 { return r.Extra[key] }
}

func dramAccesses(r system.RunResult) uint64 { return r.DRAMAccesses }

// opCosts are host time per simulated operation: a layer's traced step
// time over the operations it served. The counters cover the measured
// phase only, so they are scaled up to the stepped references; this
// assumes warm-up runs at the measured phase's operation rates.
var opCosts = []struct {
	name, unit, layer string
	count             func(system.RunResult) uint64
}{
	{"pagetable.ns_per_walk", "ns/walk", "pagetable", extra("walks")},
	{"mtl.ns_per_translation", "ns/translation", "mtl", extra("mtl.translations")},
	{"dram.ns_per_access", "ns/access", "dram", dramAccesses},
}

// policies are the heterogeneous-memory placement policies the benchmark
// runs, as metric slugs.
var policies = []string{slug(system.PolicyUnaware.String()), slug(system.PolicyVBI.String())}

// perLayer lists the traced run's metrics in reporting order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".self_ns_per_ref", "ns/ref", "lower"}, metricDef{l + ".self_share", "fraction", "lower"})
	}
	for _, l := range setupLayers {
		out = append(out, metricDef{"setup." + l + ".self_share", "fraction", "lower"})
	}
	for _, k := range system.Kinds() {
		s := slug(k.String())
		out = append(out, metricDef{"kind." + s + ".ns_per_ref", "ns/ref", "lower"}, metricDef{"kind." + s + ".setup_ms", "ms", "lower"})
	}
	for _, p := range policies {
		out = append(out, metricDef{"policy." + p + ".ns_per_ref", "ns/ref", "lower"})
	}
	for _, c := range simCounts {
		out = append(out, metricDef{c.name, "count/kref", "lower"})
	}
	out = append(out, metricDef{"sim.mtl.tlb_hit_ratio", "fraction", "higher"}, metricDef{"sim.migrated_mb", "MB", "lower"})
	for _, c := range opCosts {
		out = append(out, metricDef{c.name, c.unit, "lower"})
	}
	return append(out,
		metricDef{"profile.samples", "count", "higher"}, metricDef{"profile.overhead", "fraction", "lower"},
		metricDef{"wall.refs_per_s", "refs/s", "higher"}, metricDef{"wall.setup_s", "s", "lower"},
		metricDef{"wall.peak_rss_mb", "MB", "lower"}, metricDef{"wall.calibration_ms", "ms", "lower"})
}

// FailedFrac is the share of attempted runs that failed.
func (r *Result) FailedFrac() float64 {
	return ratio(float64(r.Failed), float64(r.Attempted))
}

// passCounts counts untraced and traced passes.
func (r *Result) passCounts() (untraced, traced int) {
	for _, p := range r.passes {
		if p.traced {
			traced++
		} else {
			untraced++
		}
	}
	return untraced, traced
}

// EndToEndMetrics computes the endToEnd metrics, in table order.
func (r *Result) EndToEndMetrics() []Metric {
	return byTable(endToEnd, map[string]Metric{
		"refs_per_s": r.overRuns(all, calibrated, refsPerS),
		"setup_s":    r.overRuns(all, calibrated, setupS),
		"peak_heap_mb": r.leastOverPasses(func(run runRecord) uint64 { return run.liveHeap }, func(least []uint64) float64 {
			return float64(slices.Max(least)) / (1 << 20)
		}),
		"allocs_per_kref": r.leastOverPasses(func(run runRecord) uint64 { return run.mallocs }, func(least []uint64) float64 {
			var allocs uint64
			for _, n := range least {
				allocs += n
			}
			return ratio(float64(allocs), sumRuns(r.passes[0], all, wall).refs/1000)
		}),
	})
}

func refsPerS(t runTotals) float64 { return 1e9 * ratio(t.refs, t.step) }

func setupS(t runTotals) float64 { return t.setup / 1e9 }

// untracedPasses returns the passes run without the profiler.
func (r *Result) untracedPasses() []passRecord {
	var out []passRecord
	for _, p := range r.passes {
		if !p.traced {
			out = append(out, p)
		}
	}
	return out
}

// overRuns summarizes a host-time metric over the untraced passes. Its
// value is f of the matching runs' totals, with each run's constructor and
// Run times first taken as their medians over the passes. A slow-down of a
// second or two hits one or two runs of a pass; the per-run median drops
// it, where a median of pass totals keeps it once it has hit half the
// passes. Min and Max are f of the extreme passes' own totals.
func (r *Result) overRuns(match func(*job) bool, ns func(d, cal time.Duration) float64, f func(runTotals) float64) Metric {
	passes := r.untracedPasses()
	m := Metric{Samples: len(passes)}
	if len(passes) == 0 {
		return m
	}
	var t runTotals
	setup, step := make([]float64, len(passes)), make([]float64, len(passes))
	for i, run := range passes[0].runs {
		if !match(run.job) {
			continue
		}
		for k, p := range passes {
			setup[k] = ns(p.runs[i].setup, p.runs[i].cal)
			step[k] = ns(p.runs[i].step, p.runs[i].cal)
		}
		t.setup += median(setup)
		t.step += median(step)
		t.refs += float64(run.job.stepped)
	}
	m.Value = f(t)
	m.Min, m.Max = extremes(r.perPass(false, func(p passRecord) float64 { return f(sumRuns(p, match, ns)) }))
	return m
}

// leastOverPasses takes, for each run of the matrix, the least value of
// count over the untraced passes, and summarizes those with f. It serves
// counts the simulator repeats for a seed: whatever else the process does
// during a run (the runtime's first-use set-up, a stray runtime
// allocation) only adds to them.
func (r *Result) leastOverPasses(count func(runRecord) uint64, f func(least []uint64) float64) Metric {
	passes := r.untracedPasses()
	if len(passes) == 0 {
		return Metric{}
	}
	least := make([]uint64, len(passes[0].runs))
	for i := range least {
		least[i] = math.MaxUint64
		for _, p := range passes {
			least[i] = min(least[i], count(p.runs[i]))
		}
	}
	v := f(least)
	return Metric{Value: v, Samples: len(passes), Min: v, Max: v}
}

// PerLayerMetrics computes the perLayer metrics, in table order. Layer
// shares come from the traced passes' CPU profile, per-kind and
// per-policy times from the untraced passes' spans, and simulated counts
// from the first pass.
func (r *Result) PerLayerMetrics() []Metric {
	vals := map[string]Metric{}
	_, traced := r.passCounts()
	put := func(name string, v float64) {
		vals[name] = Metric{Value: v, Samples: traced, Min: v, Max: v}
	}

	// Host time per layer: each layer's share of the simulating
	// goroutine's profile samples, applied to the traced passes'
	// calibrated step time.
	stepNs, setupNs := map[string]float64{}, map[string]float64{}
	var stepAll, setupAll float64
	labelled := 0
	for _, s := range r.samples {
		switch s.phase {
		case "step":
			stepNs[layerOf(s.frames)] += float64(s.cpuNs)
			stepAll += float64(s.cpuNs)
		case "setup":
			setupNs[layerOf(s.frames)] += float64(s.cpuNs)
			setupAll += float64(s.cpuNs)
		default:
			continue
		}
		labelled++
	}
	var tracedStep, tracedRefs float64
	for _, p := range r.passes {
		if p.traced {
			t := sumRuns(p, all, calibrated)
			tracedStep += t.step
			tracedRefs += t.refs
		}
	}
	layerNs := func(l string) float64 { return ratio(stepNs[l], stepAll) * tracedStep }
	for _, l := range layers {
		put(l+".self_ns_per_ref", ratio(layerNs(l), tracedRefs))
		put(l+".self_share", ratio(stepNs[l], stepAll))
	}
	for _, l := range setupLayers {
		put("setup."+l+".self_share", ratio(setupNs[l], setupAll))
	}
	for _, c := range opCosts {
		var ops float64
		for _, p := range r.passes {
			if !p.traced {
				continue
			}
			for _, run := range p.runs {
				var n, measured float64
				for _, res := range run.results {
					n += float64(c.count(res))
					measured += float64(res.MemRefs)
				}
				ops += ratio(n*float64(run.job.stepped), measured)
			}
		}
		put(c.name, ratio(layerNs(c.layer), ops))
	}
	put("profile.samples", float64(labelled))
	step := func(p passRecord) float64 { return sumRuns(p, all, calibrated).step }
	overhead := 0.0
	if untraced := median(r.perPass(false, step)); traced > 0 && untraced > 0 {
		overhead = median(r.perPass(true, step))/untraced - 1
	}
	put("profile.overhead", overhead)

	// Host time per kind and policy, from the untraced spans.
	nsPerRef := func(t runTotals) float64 { return ratio(t.step, t.refs) }
	setupMs := func(t runTotals) float64 { return t.setup / 1e6 }
	for _, k := range system.Kinds() {
		s := slug(k.String())
		is := func(j *job) bool { return j.kind == s }
		vals["kind."+s+".ns_per_ref"] = r.overRuns(is, calibrated, nsPerRef)
		vals["kind."+s+".setup_ms"] = r.overRuns(is, calibrated, setupMs)
	}
	for _, pol := range policies {
		is := func(j *job) bool { return j.policy == pol }
		vals["policy."+pol+".ns_per_ref"] = r.overRuns(is, calibrated, nsPerRef)
	}

	// Uncalibrated host time.
	vals["wall.refs_per_s"] = r.overRuns(all, wall, refsPerS)
	vals["wall.setup_s"] = r.overRuns(all, wall, setupS)
	vals["wall.peak_rss_mb"] = single(r.PeakRSSMB)
	vals["wall.calibration_ms"] = r.overPasses(func(p passRecord) float64 {
		var cal time.Duration
		for _, run := range p.runs {
			cal += run.cal
		}
		return ratio(float64(cal)/1e6, float64(len(p.runs)))
	})

	// Simulated work, identical in every pass.
	var first []system.RunResult
	if len(r.passes) > 0 {
		for _, run := range r.passes[0].runs {
			first = append(first, run.results...)
		}
	}
	sum := func(count func(system.RunResult) uint64) float64 {
		var n float64
		for _, res := range first {
			n += float64(count(res))
		}
		return n
	}
	krefs := sum(func(r system.RunResult) uint64 { return r.MemRefs }) / 1000
	for _, c := range simCounts {
		vals[c.name] = single(ratio(sum(c.count), krefs))
	}
	translations := sum(extra("mtl.translations"))
	vals["sim.mtl.tlb_hit_ratio"] = single(ratio(translations-sum(extra("mtl.tlb.misses")), translations))
	vals["sim.migrated_mb"] = single(sum(extra("migrated.bytes")) / (1 << 20))
	return byTable(perLayer(), vals)
}

// perPass evaluates f on every untraced (or every traced) pass.
func (r *Result) perPass(traced bool, f func(passRecord) float64) []float64 {
	var out []float64
	for _, p := range r.passes {
		if p.traced == traced {
			out = append(out, f(p))
		}
	}
	return out
}

// overPasses summarizes f over the untraced passes: their median, with
// the extremes.
func (r *Result) overPasses(f func(passRecord) float64) Metric {
	vals := r.perPass(false, f)
	m := Metric{Value: median(vals), Samples: len(vals)}
	m.Min, m.Max = extremes(vals)
	return m
}

// extremes returns the least and greatest of vals, or 0, 0 for none.
func extremes(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	return slices.Min(vals), slices.Max(vals)
}

// all matches every job.
func all(*job) bool { return true }

// calibrated rescales a host duration to the nominal host: the one on
// which the calibration kernel, timed at cal around the run, takes
// calNominal. It returns nanoseconds.
func calibrated(d, cal time.Duration) float64 {
	if cal <= 0 {
		return float64(d)
	}
	return float64(d) * float64(calNominal) / float64(cal)
}

// wall is a host duration as measured, in nanoseconds.
func wall(d, _ time.Duration) float64 { return float64(d) }

// runTotals are nanoseconds inside constructors and Run calls, and the
// references stepped, summed over runs.
type runTotals struct{ setup, step, refs float64 }

// sumRuns sums the runs of a pass that match, with times scaled by ns.
func sumRuns(p passRecord, match func(*job) bool, ns func(d, cal time.Duration) float64) runTotals {
	var t runTotals
	for _, run := range p.runs {
		if match(run.job) {
			t.setup += ns(run.setup, run.cal)
			t.step += ns(run.step, run.cal)
			t.refs += float64(run.job.stepped)
		}
	}
	return t
}

// byTable orders computed values by a metric table and gives them their
// names and units.
func byTable(defs []metricDef, vals map[string]Metric) []Metric {
	out := make([]Metric, len(defs))
	for i, d := range defs {
		m, ok := vals[d.Name]
		if !ok {
			panic(fmt.Sprintf("bench: metric %s is defined but not computed", d.Name))
		}
		m.Name, m.Unit = d.Name, d.Unit
		out[i] = m
	}
	return out
}

func single(v float64) Metric { return Metric{Value: v, Samples: 1, Min: v, Max: v} }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}
