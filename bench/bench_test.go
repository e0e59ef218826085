package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"vbi/internal/lint"
	"vbi/internal/lint/load"
)

// TestWorkloadsEmitEveryMetric runs each workload for one short untraced
// and one traced pass and checks that every metric is emitted, finite and
// carries its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short")
	}
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			w.Refs = 5000
			res, err := Run(w, Options{Seed: 1, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Errors)
			}
			if u, tr := res.passCounts(); u != 1 || tr != 1 {
				t.Fatalf("passes: %d untraced, %d traced; want 1 and 1", u, tr)
			}
			check := func(defs []metricDef, got []Metric) {
				t.Helper()
				if len(got) != len(defs) {
					t.Fatalf("%d metrics emitted, %d defined", len(got), len(defs))
				}
				for i, d := range defs {
					m := got[i]
					if m.Name != d.Name || m.Unit != d.Unit {
						t.Errorf("metric %d is %s [%s], want %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
					}
					for _, v := range []float64{m.Value, m.Min, m.Max} {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Errorf("%s = %v, not finite", m.Name, m)
						}
					}
				}
			}
			check(endToEnd, res.EndToEndMetrics())
			check(perLayer(), res.PerLayerMetrics())
			for _, m := range res.EndToEndMetrics() {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, m.Value)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables pins the repository's BENCHMARK.json to
// the workload and metric tables here.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code {%s %s}", i, got, w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n BENCHMARK.json %v\n code           %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer()) {
		t.Errorf("per_layer:\n BENCHMARK.json %v\n code           %v", doc.PerLayer, perLayer())
	}
}

// pb appends protobuf fields, for hand-building profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3), v)
}

func (b pb) bytes(field int, p []byte) pb {
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3|2), uint64(len(p)))
	return append(b, p...)
}

// TestLayerAttribution decodes a hand-built CPU profile and checks how
// its samples are attributed: the innermost layer frame wins, inlined
// frames count, helper packages count toward their caller, a stack with
// no layer frame is runtime, and setup and step samples are kept apart.
func TestLayerAttribution(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "phase", "step", "setup",
		"runtime.mallocgc",                       // 8
		"vbi/internal/pagetable.(*Table).Walk",   // 9
		"vbi/internal/system.(*convRunner).step", // 10
		"vbi/internal/tlb.(*TLB).Lookup",         // 11
		"vbi/internal/addr.VA.Line",              // 12
		"vbi/internal/mtl.(*MTL).Translate",      // 13
		"runtime.gcBgMarkWorker",                 // 14
		"vbi/internal/phys.(*Buddy).Alloc",       // 15
		"vbi/bench.runOne",                       // 16
		"vbi/internal/cache.(*Hierarchy).Access", // 17
	}
	var p pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		p = p.bytes(1, pb(nil).varint(1, st[0]).varint(2, st[1]))
	}
	// Function i names string 7+i.
	for id := uint64(1); id <= 10; id++ {
		p = p.bytes(5, pb(nil).varint(1, id).varint(2, 7+id))
	}
	// Locations: one line each, except location 2, where tlb.Lookup is
	// inlined into system.step.
	loc := func(id uint64, fns ...uint64) {
		var l pb
		l = l.varint(1, id)
		for _, f := range fns {
			l = l.bytes(4, pb(nil).varint(1, f))
		}
		p = p.bytes(4, l)
	}
	loc(1, 1)    // runtime.mallocgc
	loc(2, 4, 3) // tlb.Lookup inlined into system.step
	loc(3, 2)    // pagetable.Walk
	loc(4, 3)    // system.step
	loc(5, 5)    // addr helper
	loc(6, 6)    // mtl.Translate
	loc(7, 7)    // gcBgMarkWorker
	loc(8, 8)    // phys.Alloc
	loc(9, 9)    // bench.runOne
	loc(10, 10)  // cache.Access
	sample := func(phase uint64, ns uint64, packed bool, locs ...uint64) {
		var s pb
		if packed {
			var ids pb
			for _, l := range locs {
				ids = binary.AppendUvarint(ids, l)
			}
			s = s.bytes(1, ids)
		} else {
			for _, l := range locs {
				s = s.varint(1, l)
			}
		}
		s = s.bytes(2, binary.AppendUvarint(binary.AppendUvarint(nil, 1), ns))
		if phase != 0 {
			s = s.bytes(3, pb(nil).varint(1, 5).varint(2, phase))
		}
		p = p.bytes(2, s)
	}
	const step, setup = 6, 7
	sample(step, 400, true, 1, 3, 4) // malloc under a walk: pagetable
	sample(step, 300, false, 2, 9)   // inlined TLB lookup: tlb
	sample(step, 200, true, 5, 6, 4) // addr helper under mtl: mtl
	sample(step, 100, false, 7)      // no layer frame: runtime
	sample(setup, 50, false, 8, 9)   // phys during setup
	sample(setup, 50, false, 1, 9)   // runtime during setup
	sample(0, 1000, false, 10, 9)    // unlabelled: ignored
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := decodeCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 {
		t.Fatalf("decoded %d samples, want 7", len(samples))
	}
	if got := samples[1].frames; !reflect.DeepEqual(got, []string{strs[11], strs[10], strs[16]}) {
		t.Errorf("inlined frames decoded as %q", got)
	}
	res := &Result{samples: samples, passes: []passRecord{{traced: true}}}
	want := map[string]float64{
		"pagetable.self_share":     0.4,
		"tlb.self_share":           0.3,
		"mtl.self_share":           0.2,
		"runtime.self_share":       0.1,
		"cache.self_share":         0,
		"system.self_share":        0,
		"setup.phys.self_share":    0.5,
		"setup.runtime.self_share": 0.5,
		"profile.samples":          6,
	}
	seen := 0
	for _, m := range res.PerLayerMetrics() {
		if w, ok := want[m.Name]; ok {
			seen++
			if math.Abs(m.Value-w) > 1e-12 {
				t.Errorf("%s = %v, want %v", m.Name, m.Value, w)
			}
		}
	}
	if seen != len(want) {
		t.Errorf("found %d of %d checked metrics", seen, len(want))
	}
}

// TestDigests checks that the committed digests cover every run of every
// workload at its default reference count, for each digest seed and the
// current harness version. With VBI_BENCH_REGEN=1 it instead runs those
// matrices once and rewrites the file.
func TestDigests(t *testing.T) {
	regen := os.Getenv("VBI_BENCH_REGEN") != ""
	matrices := map[string]map[string]string{}
	for _, w := range Workloads {
		for _, seed := range digestSeeds {
			key := matrixKey(w, seed)
			if regen {
				res, err := Run(w, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Fatalf("%s: %v", key, res.Errors)
				}
				matrices[key] = res.Digests
				continue
			}
			got, err := CommittedDigests(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := w.jobs(w.Refs, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(jobs) {
				t.Errorf("%s: %d committed digests for %d runs (regenerate with VBI_BENCH_REGEN=1)", key, len(got), len(jobs))
				continue
			}
			for _, j := range jobs {
				if len(got[j.name]) != 64 {
					t.Errorf("%s: no digest for %s (regenerate with VBI_BENCH_REGEN=1)", key, j.name)
				}
			}
		}
	}
	if regen {
		if err := writeDigests(matrices); err != nil {
			t.Fatal(err)
		}
		t.Logf("digests regenerated: %s (%d matrices)", digestFile, len(matrices))
	}
}

// TestStaleDigestsFail checks that a seed with committed digests cannot
// fall back to the pass-to-pass check when its matrix has none.
func TestStaleDigestsFail(t *testing.T) {
	w := Workloads[0]
	w.Refs++
	if _, err := CommittedDigests(w, digestSeeds[0]); err == nil {
		t.Errorf("CommittedDigests(%s) = no error for a matrix without digests", matrixKey(w, digestSeeds[0]))
	}
	if d, err := CommittedDigests(w, 7); d != nil || err != nil {
		t.Errorf("CommittedDigests at seed 7 = %v, %v; want nil, nil", d, err)
	}
}

// TestVbilintClean runs the repository's analyzer suite over this module,
// which the root module's own lint gate does not reach.
func TestVbilintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide lint skipped in -short")
	}
	pkgs, err := load.New(".").Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 2 {
		t.Fatalf("loaded only %d packages; pattern ./... resolved incorrectly", len(pkgs))
	}
	findings, err := lint.RunSuite(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
