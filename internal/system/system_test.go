package system

import (
	"testing"

	"vbi/internal/trace"
)

// tlbHostile is a small profile with the mcf-like shape: cache-resident
// hot set spread one line per page, so TLB misses dominate conventional
// systems while caches hit.
func tlbHostile() trace.Profile {
	return trace.Profile{
		Name: "tlb-hostile", MemRefsPer1000: 350,
		Structs: []trace.Struct{
			{Name: "nodes", Size: 192 << 20, Pattern: trace.Chase, Weight: 4,
				WriteFrac: 0.1, HotFrac: 0.2, HotBias: 0.9, SparseHot: true, ColdFrac: 0.3},
			{Name: "aux", Size: 32 << 20, Pattern: trace.Rand, Weight: 2,
				WriteFrac: 0.3, HotFrac: 0.1, HotBias: 0.9},
		},
	}
}

// cacheFriendly fits in the L2 cache: every system should perform alike.
func cacheFriendly() trace.Profile {
	return trace.Profile{
		Name: "cache-friendly", MemRefsPer1000: 250,
		Structs: []trace.Struct{
			{Name: "ws", Size: 128 << 10, Pattern: trace.Rand, Weight: 1, WriteFrac: 0.3},
		},
	}
}

func run(t *testing.T, kind Kind, prof trace.Profile, refs int) RunResult {
	t.Helper()
	m, err := New(Config{Kind: kind, Refs: refs, Warmup: refs / 2}, prof)
	if err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	if res.Cycles == 0 || res.Instrs == 0 || res.IPC <= 0 {
		t.Fatalf("%v: degenerate result %+v", kind, res)
	}
	return res
}

func TestAllKindsRun(t *testing.T) {
	prof := tlbHostile()
	for k := Kind(0); k < numKinds; k++ {
		res := run(t, k, prof, 10_000)
		if res.MemRefs != 10_000 {
			t.Errorf("%v: measured %d refs", k, res.MemRefs)
		}
	}
}

func TestFig6OrderingOnTLBHostileWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("ordering test needs a longer run")
	}
	prof := tlbHostile()
	const refs = 60_000
	ipc := map[Kind]float64{}
	for _, k := range []Kind{Native, Virtual, VIVT, VBI1, VBI2, VBIFull, PerfectTLB} {
		ipc[k] = run(t, k, prof, refs).IPC
	}
	// The headline orderings of Figure 6.
	if !(ipc[Virtual] < ipc[Native]) {
		t.Errorf("Virtual (%.4f) should trail Native (%.4f)", ipc[Virtual], ipc[Native])
	}
	if !(ipc[VIVT] > ipc[Native]) {
		t.Errorf("VIVT (%.4f) should beat Native (%.4f)", ipc[VIVT], ipc[Native])
	}
	if !(ipc[VBI1] > ipc[Native]) {
		t.Errorf("VBI-1 (%.4f) should beat Native (%.4f)", ipc[VBI1], ipc[Native])
	}
	if !(ipc[VBI2] >= ipc[VBI1]) {
		t.Errorf("VBI-2 (%.4f) should not trail VBI-1 (%.4f)", ipc[VBI2], ipc[VBI1])
	}
	if !(ipc[VBIFull] >= ipc[VBI2]) {
		t.Errorf("VBI-Full (%.4f) should not trail VBI-2 (%.4f)", ipc[VBIFull], ipc[VBI2])
	}
	if !(ipc[PerfectTLB] > ipc[Native]) {
		t.Errorf("Perfect TLB (%.4f) should beat Native (%.4f)", ipc[PerfectTLB], ipc[Native])
	}
}

func TestCacheFriendlyWorkloadIsInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a longer run")
	}
	prof := cacheFriendly()
	const refs = 40_000
	native := run(t, Native, prof, refs).IPC
	for _, k := range []Kind{Virtual, VIVT, VBI2, VBIFull, PerfectTLB} {
		r := run(t, k, prof, refs).IPC
		ratio := r / native
		if ratio < 0.85 || ratio > 1.20 {
			t.Errorf("%v/%v IPC ratio = %.3f on cache-resident workload", k, Native, ratio)
		}
	}
}

func TestVBI2ReducesDRAMAccessesViaZeroLines(t *testing.T) {
	prof := trace.Profile{
		Name: "cold-reader", MemRefsPer1000: 300,
		Structs: []trace.Struct{
			// Reads over a large, almost never-written array.
			{Name: "sparse", Size: 256 << 20, Pattern: trace.Rand, Weight: 1,
				WriteFrac: 0.01, ColdFrac: 0.9},
		},
	}
	const refs = 30_000
	rdNative := run(t, Native, prof, refs)
	rdVBI2 := run(t, VBI2, prof, refs)
	if rdVBI2.Extra["mtl.zero.lines"] == 0 {
		t.Fatal("no zero lines on a cold-read workload")
	}
	if rdVBI2.DRAMAccesses >= rdNative.DRAMAccesses {
		t.Errorf("VBI-2 DRAM accesses (%d) not below Native (%d)",
			rdVBI2.DRAMAccesses, rdNative.DRAMAccesses)
	}
	if rdVBI2.IPC <= rdNative.IPC {
		t.Errorf("VBI-2 IPC (%.4f) not above Native (%.4f)", rdVBI2.IPC, rdNative.IPC)
	}
}

func TestVBIFullDirectMapsAndSkipsWalks(t *testing.T) {
	prof := tlbHostile()
	res := run(t, VBIFull, prof, 30_000)
	walks := res.Extra["mtl.walk.accesses"]
	trans := res.Extra["mtl.translations"]
	if trans == 0 {
		t.Fatal("no translations recorded")
	}
	// Direct-mapped VBs translate without structure walks; allow a
	// residual for the downgrade paths.
	if walks > trans/10 {
		t.Errorf("VBI-Full walk accesses = %d for %d translations", walks, trans)
	}
}

func TestVirtualWalksLongerThanNative(t *testing.T) {
	prof := tlbHostile()
	const refs = 30_000
	n := run(t, Native, prof, refs)
	v := run(t, Virtual, prof, refs)
	nWalks, vWalks := n.Extra["walks"], v.Extra["walks"]
	if nWalks == 0 || vWalks == 0 {
		t.Fatal("no walks on a TLB-hostile workload")
	}
	nPer := float64(n.Extra["walk.accesses"]) / float64(nWalks)
	vPer := float64(v.Extra["walk.accesses"]) / float64(vWalks)
	if vPer <= nPer {
		t.Errorf("2D walk length (%.2f) not above native (%.2f)", vPer, nPer)
	}
}

func TestMulticoreRuns(t *testing.T) {
	profs := []trace.Profile{tlbHostile(), cacheFriendly(), tlbHostile(), cacheFriendly()}
	for _, k := range []Kind{Native, VBIFull} {
		mc, err := NewMulticore(Config{Kind: k, Refs: 5_000, Warmup: 2_000}, profs)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		results, err := mc.Run()
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if len(results) != 4 {
			t.Fatalf("%v: %d results", k, len(results))
		}
		for i, r := range results {
			if r.IPC <= 0 {
				t.Errorf("%v core %d: IPC = %f", k, i, r.IPC)
			}
		}
	}
}

func TestMulticoreContentionSlowsCores(t *testing.T) {
	if testing.Short() {
		t.Skip("needs longer runs")
	}
	prof := tlbHostile()
	alone := run(t, Native, prof, 20_000).IPC
	mc, err := NewMulticore(Config{Kind: Native, Refs: 20_000, Warmup: 10_000},
		[]trace.Profile{prof, prof, prof, prof})
	if err != nil {
		t.Fatal(err)
	}
	results, err := mc.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.IPC > alone*1.05 {
			t.Errorf("core %d shared IPC %.4f exceeds alone IPC %.4f", i, r.IPC, alone)
		}
	}
}

func TestKindString(t *testing.T) {
	if Native.String() != "Native" || VBIFull.String() != "VBI-Full" {
		t.Fatal("Kind.String broken")
	}
	if Kind(99).String() == "" {
		t.Fatal("out-of-range Kind.String")
	}
}

func TestLazyCacheCleanupOnDisable(t *testing.T) {
	// §4.2.4: when a VB is disabled and its VBID recycled, its stale cache
	// lines must be invalidated so the new owner never reads them.
	prof := cacheFriendly()
	m, err := New(Config{Kind: VBI2, Refs: 2_000, Warmup: 1_000}, prof)
	if err != nil {
		t.Fatal(err)
	}
	r := m.runners[0]
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Fabricate a victim process whose VB fills some cache lines, then
	// destroy it; the hook must purge its lines.
	proc := r.vbios.CreateProcess()
	idx, u, err := r.vbios.RequestVB(proc, 64<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = idx
	base := uint64(u.Base())
	for off := uint64(0); off < 4096; off += 64 {
		r.hier.Fill(base+off, true)
	}
	if !r.hier.LLC.Contains(base) {
		t.Fatal("setup: line not cached")
	}
	if err := r.vbios.DestroyProcess(proc); err != nil {
		t.Fatal(err)
	}
	if r.hier.LLC.Contains(base) || r.hier.L1.Contains(base) {
		t.Fatal("stale lines survived disable_vb")
	}
}
