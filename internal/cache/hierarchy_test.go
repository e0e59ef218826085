package cache

import "testing"

func newTestHierarchy() *Hierarchy {
	l1 := New("L1", 1<<10, 8) // 2 sets
	l2 := New("L2", 4<<10, 8) // 8 sets
	llc := New("LLC", 16<<10, 16)
	return NewHierarchy(l1, l2, llc, DefaultLatencies)
}

func TestHierarchyMissThenHit(t *testing.T) {
	h := newTestHierarchy()
	r := h.Access(0x1000, false)
	if !r.MissedLLC || r.HitLevel != 0 {
		t.Fatalf("first access = %+v, want LLC miss", r)
	}
	h.Fill(0x1000, false)
	r = h.Access(0x1000, false)
	if r.MissedLLC || r.HitLevel != 1 || r.Latency != 4 {
		t.Fatalf("after fill = %+v, want L1 hit at 4cy", r)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := newTestHierarchy()
	h.Fill(0x40, false)
	if r := h.Access(0x40, false); r.Latency != h.Lat.L1Hit() {
		t.Fatalf("L1 hit latency = %d", r.Latency)
	}
	// Evict from L1 only: L1 is 1 KB (16 lines); fill 16 conflicting lines.
	h2 := newTestHierarchy()
	h2.Fill(0, false)
	for i := uint64(1); i <= 15; i++ {
		h2.Fill(i*1024, false) // all map to L1/L2/LLC set 0; 16 lines fit the 16-way LLC set
	}
	// line 0 may or may not be in L1 now; look for a level-2 or 3 hit at
	// the right latency.
	r := h2.Access(0, false)
	if r.MissedLLC {
		t.Fatalf("line 0 fell out of LLC unexpectedly: %+v", r)
	}
	switch r.HitLevel {
	case 1:
		if r.Latency != h2.Lat.L1Hit() {
			t.Fatalf("bad L1 latency %d", r.Latency)
		}
	case 2:
		if r.Latency != h2.Lat.L2Hit() {
			t.Fatalf("bad L2 latency %d", r.Latency)
		}
	case 3:
		if r.Latency != h2.Lat.LLCHit() {
			t.Fatalf("bad LLC latency %d", r.Latency)
		}
	}
}

func TestHierarchyDirtyWritebackOnLLCEviction(t *testing.T) {
	// Tiny LLC so we can force evictions: 2 lines, direct-ish.
	l1 := New("L1", 1<<10, 8)
	l2 := New("L2", 1<<10, 8)
	llc := New("LLC", 2*LineSize, 2) // 1 set, 2 ways
	h := NewHierarchy(l1, l2, llc, DefaultLatencies)

	h.Fill(0, true) // dirty line 0
	h.Fill(64, false)
	wbs := h.Fill(128, false) // evicts LRU = line 0 (dirty)
	found := false
	for _, wb := range wbs {
		if wb == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected writeback of line 0, got %v", wbs)
	}
	// Back-invalidation: line 0 must be gone from L1/L2 too.
	if l1.Contains(0) || l2.Contains(0) {
		t.Fatal("LLC eviction did not back-invalidate upper levels")
	}
}

func TestHierarchyDirtyInL1OnlyStillWrittenBack(t *testing.T) {
	// A line dirty only in L1 must still produce a writeback when the LLC
	// drops it (the LLC copy is clean but back-invalidation finds dirt).
	l1 := New("L1", 1<<10, 8)
	l2 := New("L2", 1<<10, 8)
	llc := New("LLC", 2*LineSize, 2)
	h := NewHierarchy(l1, l2, llc, DefaultLatencies)

	h.Fill(0, false)
	h.Access(0, true) // L1 hit, dirties only L1
	h.Fill(64, false)
	wbs := h.Fill(128, false)
	found := false
	for _, wb := range wbs {
		if wb == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dirty-in-L1 line not written back: %v", wbs)
	}
}

func TestHierarchyWalkerAccess(t *testing.T) {
	h := newTestHierarchy()
	lat, missed, _ := h.WalkerAccess(0x2000)
	if !missed {
		t.Fatal("first walker access should miss")
	}
	if lat != h.Lat.LLCHit() {
		t.Fatalf("walker miss on-chip latency = %d", lat)
	}
	lat, missed, _ = h.WalkerAccess(0x2000)
	if missed || lat != h.Lat.L2Hit() {
		t.Fatalf("second walker access = %d,%v want L2 hit", lat, missed)
	}
	// Walker fills must not pollute L1.
	if h.L1.Contains(0x2000) {
		t.Fatal("walker access polluted L1")
	}
}

func TestHierarchyInvalidateIf(t *testing.T) {
	h := newTestHierarchy()
	for i := uint64(0); i < 8; i++ {
		h.Fill(i*64, true)
	}
	n := h.InvalidateIf(func(line uint64) bool { return line < 4*64 })
	if n == 0 {
		t.Fatal("nothing invalidated")
	}
	r := h.Access(0, false)
	if !r.MissedLLC {
		t.Fatal("invalidated line still resident")
	}
}

func TestHierarchySharedLLC(t *testing.T) {
	l1a := New("L1a", 1<<10, 8)
	l2a := New("L2a", 4<<10, 8)
	llc := New("LLC", 16<<10, 16)
	ha := NewHierarchy(l1a, l2a, llc, DefaultLatencies)
	l1b := New("L1b", 1<<10, 8)
	l2b := New("L2b", 4<<10, 8)
	hb := ha.ShareLLC(l1b, l2b)

	ha.Fill(0x3000, false)
	// Core B misses its private caches but hits the shared LLC.
	r := hb.Access(0x3000, false)
	if r.MissedLLC || r.HitLevel != 3 {
		t.Fatalf("core B access = %+v, want LLC hit", r)
	}
}

// A cold write fill must not perturb LLC demand statistics: Fill records
// dirty state through Insert and spillToLLC through the non-stat MarkDirty
// probe, so Stats.Hits/Misses count only demand accesses. (The old
// Lookup(line, true) bookkeeping probe inflated LLC hits on every fill of
// a line the LLC already held, and misses on every cold fill.)
func TestFillColdWriteNoLLCDemandHits(t *testing.T) {
	h := newTestHierarchy()
	r := h.Access(0x2000, true)
	if !r.MissedLLC {
		t.Fatalf("cold access = %+v, want LLC miss", r)
	}
	hits, misses := h.LLC.Stats.Hits, h.LLC.Stats.Misses
	h.Fill(0x2000, true)
	if h.LLC.Stats.Hits != hits {
		t.Fatalf("cold write fill added %d LLC demand hits", h.LLC.Stats.Hits-hits)
	}
	if h.LLC.Stats.Misses != misses {
		t.Fatalf("cold write fill added %d LLC demand misses", h.LLC.Stats.Misses-misses)
	}
	// Re-filling a line the LLC still holds (an L1/L2 refill after an LLC
	// hit) must not count either.
	h.Fill(0x2000, true)
	if h.LLC.Stats.Hits != hits || h.LLC.Stats.Misses != misses {
		t.Fatalf("warm fill changed LLC demand stats: %+v", h.LLC.Stats)
	}
	// A genuine demand access still counts.
	if r := h.Access(0x2000, false); r.MissedLLC {
		t.Fatalf("line lost after fills: %+v", r)
	}
	if h.LLC.Stats.Hits != hits && h.LLC.Stats.Hits == hits+1 {
		t.Fatalf("demand hit not counted")
	}
}
