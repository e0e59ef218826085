package system

import (
	"testing"

	"vbi/internal/workloads"
)

// stepWarmup is how many steps each core takes before allocations are
// counted: enough for the scratch buffers, TLBs, caches and translation
// tables to reach their steady-state capacity.
const stepWarmup = 50_000

// runSteps is how many measured references each core takes per run call
// (after one warmup reference): a few thousand, so the loop's own per-call
// work is counted beside the steps, and below HeteroEpochRefs, so the
// hetero machine's migration epoch never fires inside a call.
const runSteps = 2_000

// TestStepAllocFree requires Machine.run, the one loop every machine
// steps through, to allocate nothing once warmed, for every kind on a
// small-footprint (namd) and a TLB-hostile (mcf) workload, for a
// VBI-policy hetero machine, and for every kind's wl3 quad-core bundle.
// vbilint's hotalloc only reads the bodies of marked functions; this
// catches an allocation anywhere below run, including unmarked callees in
// other packages.
func TestStepAllocFree(t *testing.T) {
	check := func(t *testing.T, m *Machine, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if err := m.run(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < stepWarmup/runSteps; i++ {
			run()
		}
		if n := testing.AllocsPerRun(5, run); n != 0 {
			t.Errorf("run allocates %.0f times per call of %d references per core", n, 1+runSteps)
		}
	}
	for _, app := range []string{"namd", "mcf"} {
		prof := workloads.MustGet(app)
		for _, kind := range Kinds() {
			t.Run(kind.String()+"/"+app, func(t *testing.T) {
				m, err := New(Config{Kind: kind, Warmup: 1, Refs: runSteps}, prof)
				check(t, m, err)
			})
		}
	}
	t.Run("hetero/"+PolicyVBI.String(), func(t *testing.T) {
		m, err := NewHetero(HeteroConfig{Mem: HeteroPCMDRAM, Policy: PolicyVBI, Warmup: 1, Refs: runSteps},
			workloads.MustGet("mcf"))
		check(t, m, err)
	})
	for _, kind := range Kinds() {
		t.Run("wl3/"+kind.String(), func(t *testing.T) {
			mc, err := NewMulticore(Config{Kind: kind, Warmup: 1, Refs: runSteps}, bundleProfiles(t, "wl3"))
			check(t, (*Machine)(mc), err)
		})
	}
}
