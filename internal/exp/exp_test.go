package exp

import (
	"strings"
	"testing"

	"vbi/internal/harness"
	"vbi/internal/system"
	"vbi/internal/workloads"
)

// The tests in this file are the figure-shape regressions: they assert the
// qualitative results of the paper's evaluation (who wins, in what order)
// on scaled-down runs. EXPERIMENTS.md records full-scale numbers.

const shapeRefs = 150_000

func ipcOf(t *testing.T, kind system.Kind, app string) float64 {
	t.Helper()
	k := runKey{kind: kind, app: app}
	runs, err := runSingles(Options{Refs: shapeRefs}, []runKey{k})
	if err != nil {
		t.Fatalf("%v/%s: %v", kind, app, err)
	}
	return runs[k].IPC
}

// TestFig6ShapeMcf asserts Figure 6's ordering on its most translation-
// bound application.
func TestFig6ShapeMcf(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	t.Parallel()
	native := ipcOf(t, system.Native, "mcf")
	virtual := ipcOf(t, system.Virtual, "mcf")
	vivt := ipcOf(t, system.VIVT, "mcf")
	vbi1 := ipcOf(t, system.VBI1, "mcf")
	vbi2 := ipcOf(t, system.VBI2, "mcf")
	vbiFull := ipcOf(t, system.VBIFull, "mcf")
	perfect := ipcOf(t, system.PerfectTLB, "mcf")

	if !(virtual < native) {
		t.Errorf("Virtual (%f) should trail Native (%f)", virtual, native)
	}
	if !(vivt > native) {
		t.Errorf("VIVT (%f) should beat Native (%f)", vivt, native)
	}
	if !(vbi1 > vivt) {
		t.Errorf("VBI-1 (%f) should beat VIVT (%f)", vbi1, vivt)
	}
	if !(vbi2 >= vbi1) {
		t.Errorf("VBI-2 (%f) should not trail VBI-1 (%f)", vbi2, vbi1)
	}
	if !(vbiFull > vbi2) {
		t.Errorf("VBI-Full (%f) should beat VBI-2 (%f)", vbiFull, vbi2)
	}
	if !(vbiFull > perfect) {
		t.Errorf("VBI-Full (%f) should beat Perfect TLB (%f) on mcf (§7.2.2)", vbiFull, perfect)
	}
	// Magnitude sanity: mcf is the extreme case.
	if vbiFull/native < 1.5 {
		t.Errorf("VBI-Full speedup on mcf = %.2f, expected a large factor", vbiFull/native)
	}
}

// TestFig6ShapeInsensitive asserts that a cache-resident application is
// insensitive to the virtual-memory framework.
func TestFig6ShapeInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	t.Parallel()
	native := ipcOf(t, system.Native, "namd")
	for _, k := range []system.Kind{system.VIVT, system.VBI1, system.VBI2} {
		r := ipcOf(t, k, "namd") / native
		if r < 0.9 || r > 1.6 {
			t.Errorf("%v/Native on namd = %.2f, want near 1", k, r)
		}
	}
}

// TestFig7Shape asserts Figure 7's ordering with large pages on mcf.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	t.Parallel()
	native2M := ipcOf(t, system.Native2M, "mcf")
	virtual2M := ipcOf(t, system.Virtual2M, "mcf")
	enigma := ipcOf(t, system.EnigmaHW2M, "mcf")
	vbiFull := ipcOf(t, system.VBIFull, "mcf")

	if !(virtual2M < native2M) {
		t.Errorf("Virtual-2M (%f) should trail Native-2M (%f)", virtual2M, native2M)
	}
	if !(enigma > native2M) {
		t.Errorf("Enigma-HW-2M (%f) should beat Native-2M (%f)", enigma, native2M)
	}
	if !(vbiFull > enigma) {
		t.Errorf("VBI-Full (%f) should beat Enigma-HW-2M (%f)", vbiFull, enigma)
	}
}

// TestFig8Shape asserts the multiprogrammed ordering on one bundle.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	t.Parallel()
	o := Options{Refs: 40_000}
	apps := workloads.Bundles["wl5"]
	var keys []runKey
	for _, a := range apps {
		keys = append(keys, runKey{kind: system.Native, app: a})
	}
	alone, err := runSingles(o, keys)
	if err != nil {
		t.Fatal(err)
	}
	ws := func(kind system.Kind) float64 {
		job := harness.Job{Spec: system.MustSpec(kind.String()), Workloads: apps, Refs: o.Refs}
		results, err := o.exec().Run(o.ctx(), []harness.Job{job})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for i, r := range results[0].Results {
			total += r.IPC / alone[keys[i]].IPC
		}
		return total
	}
	native := ws(system.Native)
	native2M := ws(system.Native2M)
	virtual := ws(system.Virtual)
	vbiFull := ws(system.VBIFull)
	if !(virtual < native) {
		t.Errorf("Virtual WS (%f) should trail Native (%f)", virtual, native)
	}
	if !(native2M > native) {
		t.Errorf("Native-2M WS (%f) should beat Native (%f)", native2M, native)
	}
	if !(vbiFull > native2M) {
		t.Errorf("VBI-Full WS (%f) should beat Native-2M (%f)", vbiFull, native2M)
	}
}

// TestFig910Shape asserts the heterogeneous-memory claims: VBI mapping
// beats hotness-unaware mapping and lands near IDEAL (§7.3).
func TestFig910Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	t.Parallel()
	o := Options{Refs: 100_000}
	for _, mem := range []system.HeteroMem{system.HeteroPCMDRAM, system.HeteroTLDRAM} {
		var jobs []harness.Job
		for _, pol := range []system.Policy{system.PolicyUnaware, system.PolicyVBI, system.PolicyIdeal} {
			jobs = append(jobs, harness.Job{Workloads: []string{"sphinx3"}, Refs: o.Refs,
				HeteroMem: mem.String(), Policy: pol.String()})
		}
		results, err := o.exec().Run(o.ctx(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		base, vbi, ideal := results[0].Results[0], results[1].Results[0], results[2].Results[0]
		if !(vbi.IPC > base.IPC*1.05) {
			t.Errorf("%v: VBI (%f) should beat hotness-unaware (%f)", mem, vbi.IPC, base.IPC)
		}
		if vbi.IPC < ideal.IPC*0.85 {
			t.Errorf("%v: VBI (%f) should be near IDEAL (%f)", mem, vbi.IPC, ideal.IPC)
		}
	}
}

func TestTableRendering(t *testing.T) {
	t1 := Table1()
	for _, want := range []string{"DDR3-1600", "tRCD=22cy", "128-entry ROB", "32-entry"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	t2 := Table2()
	for _, want := range []string{"wl1", "wl6", "deepsjeng-17", "GemsFDTD"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
}

// TestDRAMReductionShape asserts §7.2's traffic claim: delayed allocation
// cuts total DRAM accesses (demand + translation + writeback) relative to
// Perfect TLB on a cold-read-heavy application.
func TestDRAMReductionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	t.Parallel()
	keys := []runKey{
		{kind: system.PerfectTLB, app: "graph500"}, {kind: system.VBI2, app: "graph500"},
		{kind: system.VBIFull, app: "graph500"}, {kind: system.Native, app: "graph500"},
	}
	runs, err := runSingles(Options{Refs: shapeRefs}, keys)
	if err != nil {
		t.Fatal(err)
	}
	perfect, vbi2, vbiFull, native := runs[keys[0]], runs[keys[1]], runs[keys[2]], runs[keys[3]]
	// Delayed allocation cuts traffic relative to Native, and adding early
	// reservation (no walk traffic) drops VBI-Full below even Perfect TLB.
	// (The paper's stronger claim — VBI-2 itself 46% below Perfect TLB —
	// needs larger never-written footprints than the conservative synthetic
	// profiles model; see EXPERIMENTS.md.)
	if !(vbi2.DRAMAccesses < native.DRAMAccesses) {
		t.Errorf("VBI-2 DRAM (%d) not below Native (%d)",
			vbi2.DRAMAccesses, native.DRAMAccesses)
	}
	if !(vbiFull.DRAMAccesses < vbi2.DRAMAccesses) {
		t.Errorf("VBI-Full DRAM (%d) not below VBI-2 (%d)",
			vbiFull.DRAMAccesses, vbi2.DRAMAccesses)
	}
	if !(float64(vbiFull.DRAMAccesses) < float64(perfect.DRAMAccesses)) {
		t.Errorf("VBI-Full DRAM (%d) not below Perfect TLB (%d)",
			vbiFull.DRAMAccesses, perfect.DRAMAccesses)
	}
}

// TestAblationFlexibleShape asserts §5.2's claim: flexible translation
// structures reduce the memory accesses needed to serve MTL TLB misses.
func TestAblationFlexibleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	t.Parallel()
	tab, err := AblationFlexible(Options{Refs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	ratios := tab.Get("walk-ratio")
	avg := ratios[len(ratios)-1] // AVG row
	if avg >= 0.9 {
		t.Errorf("flexible structures cut walk accesses only to %.2f of fixed tables", avg)
	}
	speedups := tab.Get("speedup")
	if speedups[len(speedups)-1] < 0.99 {
		t.Errorf("flexible structures slowed execution: %.3f", speedups[len(speedups)-1])
	}
}

// TestCVTTableShape asserts §4.3: few VBs per program, near-100% CVT cache
// hit rates with the 64-entry direct-mapped cache.
func TestCVTTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	t.Parallel()
	tab, err := CVTTable(Options{Refs: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range tab.Get("hit-rate") {
		if rate < 0.99 {
			t.Errorf("%s: CVT cache hit rate %.4f", tab.Rows[i], rate)
		}
	}
}

// TestFigureWorkerInvariance exercises the harness guarantee end-to-end
// through a figure function: serial and parallel execution must render the
// identical table, and a warm result cache must reproduce it again.
func TestFigureWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	t.Parallel()
	cacheDir := t.TempDir()
	serial, err := AblationFlexible(Options{Refs: 8_000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := AblationFlexible(Options{Refs: 8_000, Workers: 8, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Render() != parallel.Render() {
		t.Errorf("parallel table differs:\nserial:\n%s\nparallel:\n%s",
			serial.Render(), parallel.Render())
	}
	cached, err := AblationFlexible(Options{Refs: 8_000, Workers: 8, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Render() != serial.Render() {
		t.Errorf("cache-served table differs:\nserial:\n%s\ncached:\n%s",
			serial.Render(), cached.Render())
	}
}
