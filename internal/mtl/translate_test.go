package mtl

import (
	"testing"

	"vbi/internal/addr"
	"vbi/internal/phys"
)

func TestTranslateColdMissThenTLBHit(t *testing.T) {
	m := newTestMTL(t, Config{}) // VBI-1: no delayed alloc
	u := mustEnable(t, m, addr.Size128KB, 1, 0)
	a := addr.Make(u, 0x2040)

	ev, err := m.TranslateRead(a)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TLBL1Hit || ev.TLBL2Hit {
		t.Fatal("cold access hit the TLB")
	}
	if ev.VITAccess == phys.NoAddr {
		t.Fatal("cold access should read the VIT from memory")
	}
	if !ev.AllocatedRegion {
		t.Fatal("VBI-1 must allocate on first access")
	}
	if ev.ZeroLine {
		t.Fatal("VBI-1 never returns zero lines")
	}
	if ev.Phys == phys.NoAddr {
		t.Fatal("no physical address")
	}

	ev2, err := m.TranslateRead(a)
	if err != nil {
		t.Fatal(err)
	}
	if !ev2.TLBL1Hit {
		t.Fatal("second access missed the MTL TLB")
	}
	if ev2.Phys != ev.Phys {
		t.Fatalf("TLB hit translated to %v, walk gave %v", ev2.Phys, ev.Phys)
	}
}

func TestTranslateWalkLengthByClass(t *testing.T) {
	// §5.2/§4.5.2: smaller VBs take fewer memory accesses per TLB miss.
	cases := []struct {
		c        addr.SizeClass
		maxDepth int
	}{
		{addr.Size4KB, 0},   // direct: VIT entry suffices
		{addr.Size128KB, 1}, // single-level
		{addr.Size4MB, 1},
		{addr.Size128MB, 2},
		{addr.Size4GB, 3},
	}
	for i, c := range cases {
		m := newTestMTL(t, Config{})
		u := mustEnable(t, m, c.c, uint64(i+1), 0)
		a := addr.Make(u, 0)
		ev, err := m.TranslateRead(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(ev.WalkAccesses) != c.maxDepth {
			t.Errorf("%v: %d walk accesses, want %d", c.c, len(ev.WalkAccesses), c.maxDepth)
		}
	}
}

func TestDelayedAllocZeroLine(t *testing.T) {
	m := newTestMTL(t, Config{DelayedAlloc: true}) // VBI-2
	u := mustEnable(t, m, addr.Size4MB, 1, 0)
	a := addr.Make(u, 0x10000)

	// §5.1: a read of a never-written region returns a zero line without
	// allocating physical memory or walking any structure.
	ev, err := m.TranslateRead(a)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.ZeroLine {
		t.Fatal("expected zero line")
	}
	if ev.AllocatedRegion || len(ev.WalkAccesses) != 0 {
		t.Fatalf("zero line performed work: %+v", ev)
	}
	if m.AllocatedRegions(u) != 0 {
		t.Fatal("zero line allocated memory")
	}

	// The dirty eviction is the allocation trigger.
	ev, err = m.TranslateWriteback(a)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.AllocatedRegion || ev.ZeroLine {
		t.Fatalf("writeback event = %+v", ev)
	}
	if m.AllocatedRegions(u) != 1 {
		t.Fatalf("allocated regions = %d, want 1", m.AllocatedRegions(u))
	}

	// Reads of the now-allocated region go to memory normally.
	ev, err = m.TranslateRead(addr.Make(u, 0x10040))
	if err != nil {
		t.Fatal(err)
	}
	if ev.ZeroLine {
		t.Fatal("allocated region still served as zero line")
	}
}

func TestDelayedAllocOnlyEvictedRegion(t *testing.T) {
	m := newTestMTL(t, Config{DelayedAlloc: true})
	u := mustEnable(t, m, addr.Size4MB, 1, 0)
	// §5.1: VBI allocates only the 4 KB region containing the evicted
	// line.
	if _, err := m.TranslateWriteback(addr.Make(u, 3*RegionSize+64)); err != nil {
		t.Fatal(err)
	}
	if m.AllocatedRegions(u) != 1 {
		t.Fatalf("allocated regions = %d, want exactly 1", m.AllocatedRegions(u))
	}
	// Other regions still read as zero lines.
	ev, _ := m.TranslateRead(addr.Make(u, 2*RegionSize))
	if !ev.ZeroLine {
		t.Fatal("neighbouring region lost zero-line service")
	}
}

func TestEarlyReservationDirectMaps(t *testing.T) {
	m := newTestMTL(t, Config{DelayedAlloc: true, EarlyReservation: true}) // VBI-Full
	u := mustEnable(t, m, addr.Size4MB, 1, 0)

	ev, err := m.TranslateWriteback(addr.Make(u, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind(u) != TransDirect {
		t.Fatalf("kind = %v, want direct", m.Kind(u))
	}
	if len(ev.WalkAccesses) != 0 {
		t.Fatal("direct-mapped VB performed walk accesses")
	}
	base := ev.Phys

	// A distant region translates contiguously off the same base via the
	// single whole-VB TLB entry.
	ev2, err := m.TranslateWriteback(addr.Make(u, 2<<20))
	if err != nil {
		t.Fatal(err)
	}
	if !ev2.TLBL1Hit {
		t.Fatal("whole-VB TLB entry did not cover the far region")
	}
	if ev2.Phys != base+2<<20 {
		t.Fatalf("phys = %v, want %v", ev2.Phys, base+2<<20)
	}
	if m.Stats.Reservations != 1 {
		t.Fatalf("reservations = %d", m.Stats.Reservations)
	}
}

func TestEarlyReservationKeepsZeroLines(t *testing.T) {
	// §7.2.2: VBI-Full retains the benefits of VBI-2 — zero lines must
	// work even after the whole-VB TLB entry is resident.
	m := newTestMTL(t, Config{DelayedAlloc: true, EarlyReservation: true})
	u := mustEnable(t, m, addr.Size4MB, 1, 0)
	m.TranslateWriteback(addr.Make(u, 0)) // establish direct mapping + TLB entry

	ev, err := m.TranslateRead(addr.Make(u, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.ZeroLine {
		t.Fatal("unallocated region of direct VB not served as zero line")
	}
}

func TestEarlyReservationFallbackWhenNoContiguity(t *testing.T) {
	// A 4 MB pool cannot hold a 4 MB reservation once fragmented; enable a
	// small VB first to consume space, then the big VB must fall back.
	m := NewSimple(Config{DelayedAlloc: true, EarlyReservation: true}, 4<<20)
	small := mustEnable(t, m, addr.Size128KB, 1, 0)
	if _, err := m.TranslateWriteback(addr.Make(small, 0)); err != nil {
		t.Fatal(err)
	}
	big := mustEnable(t, m, addr.Size4MB, 1, 0)
	if _, err := m.TranslateWriteback(addr.Make(big, 0)); err != nil {
		t.Fatal(err)
	}
	if m.Kind(big) == TransDirect {
		t.Fatal("4 MB VB direct-mapped despite insufficient contiguity")
	}
	if m.Kind(big) != TransSingle {
		t.Fatalf("fallback kind = %v, want single-level", m.Kind(big))
	}
}

func TestDirectDowngradeOnStolenRegion(t *testing.T) {
	// VB X reserves the whole pool; VB Y's allocations steal from the
	// reservation (buddy priority 3); X's next region allocation finds its
	// slot stolen and X downgrades to page granularity (§5.3).
	m := NewSimple(Config{DelayedAlloc: true, EarlyReservation: true}, 4<<20)
	x := mustEnable(t, m, addr.Size4MB, 1, 0)
	if _, err := m.TranslateWriteback(addr.Make(x, 0)); err != nil {
		t.Fatal(err)
	}
	if m.Kind(x) != TransDirect {
		t.Fatal("X not direct-mapped")
	}
	// Y-VBs fill half the pool; every one of their allocations steals from
	// X's reservation (buddy priority 3), scattering stolen regions
	// through X's address range.
	for i := uint64(2); i < 2+16; i++ { // 16 × 128 KB = 2 MB
		y := mustEnable(t, m, addr.Size128KB, i, 0)
		for off := uint64(0); off < 128<<10; off += RegionSize {
			if _, err := m.TranslateWriteback(addr.Make(y, off)); err != nil {
				t.Fatalf("unexpected exhaustion filling Y: %v", err)
			}
		}
	}
	// Now X marches through its regions; the first touch of a stolen slot
	// triggers the downgrade.
	stolen := false
	for off := uint64(RegionSize); off < 4<<20; off += RegionSize {
		if _, err := m.TranslateWriteback(addr.Make(x, off)); err != nil {
			break // pool genuinely exhausted
		}
		if m.Kind(x) != TransDirect {
			stolen = true
			break
		}
	}
	if !stolen {
		t.Fatal("X never lost its direct mapping despite full-pool pressure")
	}
	if m.Stats.Downgrades == 0 {
		t.Fatal("downgrade not counted")
	}
}

func TestVITCacheHitAvoidsMemoryAccess(t *testing.T) {
	m := newTestMTL(t, Config{DelayedAlloc: true})
	u := mustEnable(t, m, addr.Size4MB, 1, 0)
	// Zero-line reads never insert TLB entries, so every access consults
	// the VIT; the first misses the VIT cache, later ones hit.
	ev1, _ := m.TranslateRead(addr.Make(u, 0))
	if ev1.VITCacheHit || ev1.VITAccess == phys.NoAddr {
		t.Fatalf("first access should miss VIT cache: %+v", ev1)
	}
	ev2, _ := m.TranslateRead(addr.Make(u, RegionSize))
	if !ev2.VITCacheHit || ev2.VITAccess != phys.NoAddr {
		t.Fatalf("second access should hit VIT cache: %+v", ev2)
	}
}

func TestTranslateUnknownVB(t *testing.T) {
	m := newTestMTL(t, Config{})
	if _, err := m.TranslateRead(addr.Make(addr.MakeVBUID(addr.Size4KB, 99), 0)); err == nil {
		t.Fatal("translate of disabled VB succeeded")
	}
}

func TestTLBL2PromotionPath(t *testing.T) {
	m := newTestMTL(t, Config{})
	u := mustEnable(t, m, addr.Size4MB, 1, 0)
	// Touch enough distinct pages to overflow the 64-entry L1 but not the
	// 512-entry L2.
	for i := uint64(0); i < 128; i++ {
		if _, err := m.TranslateRead(addr.Make(u, i*RegionSize)); err != nil {
			t.Fatal(err)
		}
	}
	// Page 0 fell out of L1 but should still be in L2.
	ev, err := m.TranslateRead(addr.Make(u, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.TLBL2Hit {
		t.Fatalf("expected L2 TLB hit, got %+v", ev)
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := newTestMTL(t, Config{DelayedAlloc: true})
	u := mustEnable(t, m, addr.Size4MB, 1, 0)
	m.TranslateRead(addr.Make(u, 0))
	m.TranslateWriteback(addr.Make(u, 0))
	m.TranslateRead(addr.Make(u, 0))
	s := m.Stats
	if s.Translations != 3 || s.ZeroLines != 1 || s.RegionAllocs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestUniformTablesSurviveCloneMigratePromote checks that the §5.2
// ablation holds for every table the MTL builds, not only at first
// allocation: a clone, a promote target and a VB migrated to another zone
// all keep the fixed 4-level walk.
func TestUniformTablesSurviveCloneMigratePromote(t *testing.T) {
	zones := NewZones(map[string]uint64{"DRAM": 16 << 20, "PCM": 48 << 20}, []string{"DRAM", "PCM"})
	m := New(Config{UniformTables: true}, zones)
	// walks returns the accesses of a TLB-missing read of region 0.
	walks := func(u addr.VBUID) int {
		t.Helper()
		m.InvalidateTLBRange(u.Base(), u.Size())
		ev, err := m.TranslateRead(addr.Make(u, 0))
		if err != nil {
			t.Fatal(err)
		}
		return len(ev.WalkAccesses)
	}
	check := func(what string, u addr.VBUID) {
		t.Helper()
		if got := walks(u); got != 4 {
			t.Errorf("%s: %d walk accesses, want 4", what, got)
		}
	}

	src := mustEnable(t, m, addr.Size128KB, 1, 0)
	check("128 KB source", src)
	clone := mustEnable(t, m, addr.Size128KB, 2, 0)
	if err := m.Clone(src, clone); err != nil {
		t.Fatal(err)
	}
	check("clone", clone)

	large := mustEnable(t, m, addr.Size4MB, 3, 0)
	if err := m.Promote(src, large); err != nil {
		t.Fatal(err)
	}
	check("promote target", large)

	mig := mustEnable(t, m, addr.Size4MB, 4, 0)
	check("4 MB before migration", mig)
	if _, err := m.MigrateVB(mig, 1); err != nil {
		t.Fatal(err)
	}
	check("4 MB after migration", mig)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
