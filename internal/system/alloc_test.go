package system

import (
	"testing"

	"vbi/internal/workloads"
)

// stepWarmup is how many steps each core takes before allocations are
// counted: enough for the scratch buffers, TLBs, caches and translation
// tables to reach their steady-state capacity.
const stepWarmup = 50_000

// TestStepAllocFree requires the per-reference step of a warmed machine to
// allocate nothing, for every kind on a small-footprint (namd) and a
// TLB-hostile (mcf) workload, for a VBI-policy hetero machine, and for
// every kind's wl3 quad-core bundle. vbilint's hotalloc only reads the
// bodies of marked functions; this catches an allocation anywhere below
// step, including unmarked callees in other packages.
func TestStepAllocFree(t *testing.T) {
	check := func(t *testing.T, cores []*runner) {
		t.Helper()
		stepAll := func() {
			for _, r := range cores {
				if err := r.step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < stepWarmup; i++ {
			stepAll()
		}
		if n := testing.AllocsPerRun(1000, stepAll); n != 0 {
			t.Errorf("step allocates %.2f times per reference", n/float64(len(cores)))
		}
	}
	for _, app := range []string{"namd", "mcf"} {
		prof := workloads.MustGet(app)
		for _, kind := range Kinds() {
			t.Run(kind.String()+"/"+app, func(t *testing.T) {
				m, err := New(Config{Kind: kind}, prof)
				if err != nil {
					t.Fatal(err)
				}
				check(t, []*runner{m.runner})
			})
		}
	}
	t.Run("hetero/"+PolicyVBI.String(), func(t *testing.T) {
		h, err := NewHetero(HeteroConfig{Mem: HeteroPCMDRAM, Policy: PolicyVBI}, workloads.MustGet("mcf"))
		if err != nil {
			t.Fatal(err)
		}
		check(t, []*runner{h.runner})
	})
	for _, kind := range Kinds() {
		t.Run("wl3/"+kind.String(), func(t *testing.T) {
			m, err := NewMulticore(Config{Kind: kind}, bundleProfiles(t, "wl3"))
			if err != nil {
				t.Fatal(err)
			}
			check(t, m.runners)
		})
	}
}
