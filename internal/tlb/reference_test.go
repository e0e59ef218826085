package tlb

import (
	"slices"
	"testing"
)

// refInvalidateRange is the scan-only InvalidateRange the probe path
// replaced, kept as a reference model: it visits every page-index position,
// collects the overlapping keys into a fresh slice, sorts them, and drops
// them before the big entries.
func refInvalidateRange(t *RangeTLB, base, size uint64) int {
	n := 0
	var doomed []uint64
	for j, slot := range t.pages.slots {
		if slot == noSlot {
			continue
		}
		s := &t.slots[slot]
		if s.e.Base+s.e.Size > base && s.e.Base < base+size {
			doomed = append(doomed, t.pages.keys[j])
		}
	}
	slices.Sort(doomed)
	for _, pn := range doomed {
		i, _ := t.pages.get(pn)
		t.dropSlot(i)
		t.pages.del(pn)
		n++
	}
	kept := t.big[:0]
	for _, i := range t.big {
		s := &t.slots[i]
		if s.e.Base+s.e.Size > base && s.e.Base < base+size {
			t.dropSlot(i)
			n++
			continue
		}
		kept = append(kept, i)
	}
	t.big = kept
	return n
}

// rangeTLBState is everything about a RangeTLB that later behavior depends
// on: entries in LRU-victim order, the free list in pop order, and the big
// list.
type rangeTLBState struct {
	lru  []RangeEntry
	lruS []int32
	free []int32
	big  []int32
}

func stateOf(t *RangeTLB) rangeTLBState {
	var s rangeTLBState
	for i := t.head; i != noSlot; i = t.slots[i].next {
		s.lru = append(s.lru, t.slots[i].e)
		s.lruS = append(s.lruS, i)
	}
	s.free = slices.Clone(t.free)
	s.big = slices.Clone(t.big)
	return s
}

func (s rangeTLBState) equal(o rangeTLBState) bool {
	return slices.Equal(s.lru, o.lru) && slices.Equal(s.lruS, o.lruS) &&
		slices.Equal(s.free, o.free) && slices.Equal(s.big, o.big)
}

// TestInvalidateRangeMatchesScan drives the production TLB and one
// invalidated only through refInvalidateRange in lockstep through a seeded
// churn of aligned, unaligned and sub-page page entries, big entries,
// lookups and range invalidations (at base 0, straddling page boundaries,
// empty, wrapping, and wider than the page index). After every
// invalidation the returned count, occupancy, surviving entries, LRU
// victim order and free-list order must agree exactly, and both the probe
// path and the scan fallback must have run — including probe hits on the
// lo-1 key only an unaligned entry can occupy.
func TestInvalidateRangeMatchesScan(t *testing.T) {
	const capacity = 16
	got, want := NewRange("probe", capacity), NewRange("scan", capacity)
	index := uint64(len(got.pages.slots)) // 32 positions
	rng := uint64(3)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 16
	}
	const pages = 48 // page keys 0..47: wider than the index
	var probes, scans, belowHits int
	for step := 0; step < 60_000; step++ {
		switch op := next() % 10; {
		case op < 3: // aligned 4 KB entry
			pn := next() % pages
			e := RangeEntry{Base: pn << pageShift, Size: 4096, Phys: next() << pageShift}
			got.Insert(e)
			want.Insert(e)
		case op < 5: // unaligned and/or sub-page entry
			base := (next()%pages)<<pageShift | next()%4096
			e := RangeEntry{Base: base, Size: 1 + next()%4096, Phys: next()}
			got.Insert(e)
			want.Insert(e)
		case op == 5: // big entry, 8–32 KB, naturally aligned
			size := uint64(8<<10) << (next() % 3)
			e := RangeEntry{Base: (next() % (pages << pageShift / size)) * size, Size: size}
			got.Insert(e)
			want.Insert(e)
		case op < 8:
			a := next() % (pages << pageShift)
			ge, gok := got.Lookup(a)
			we, wok := want.Lookup(a)
			if ge != we || gok != wok {
				t.Fatalf("step %d: lookup(%#x) = %+v,%v, want %+v,%v", step, a, ge, gok, we, wok)
			}
		default:
			var base, size uint64
			switch next() % 7 {
			case 0: // at base 0
				base, size = 0, 1+next()%(8<<pageShift)
			case 1: // straddles a page boundary
				base = (1+next()%(pages-1))<<pageShift - 1 - next()%2048
				size = 2 + next()%4096
			case 2: // wider than the index: the scan fallback
				base = next() % (8 << pageShift)
				size = (index + next()%pages) << pageShift
			case 3: // empty or wrapping: the scan fallback with its edge semantics
				base = next() % (pages << pageShift)
				if next()%2 == 0 {
					size = 0
				} else {
					size = ^uint64(0) - base + 1 + next()%4096
				}
			default: // one or a few pages, aligned or not
				base = next() % (pages << pageShift)
				size = 1 + next()%(3<<pageShift)
			}
			lo := base >> pageShift
			if base+size > base && (base+size-1)>>pageShift-max(lo, 1)+1 < index {
				probes++
				if lo > 0 {
					if i, ok := want.pages.get(lo - 1); ok && want.slots[i].e.overlaps(base, size) {
						belowHits++
					}
				}
			} else {
				scans++
			}
			gn, wn := got.InvalidateRange(base, size), refInvalidateRange(want, base, size)
			if gn != wn {
				t.Fatalf("step %d: InvalidateRange(%#x, %#x) dropped %d, reference %d", step, base, size, gn, wn)
			}
		}
		if got.Occupied() != want.Occupied() {
			t.Fatalf("step %d: occupied %d, reference %d", step, got.Occupied(), want.Occupied())
		}
		if gs, ws := stateOf(got), stateOf(want); !gs.equal(ws) {
			t.Fatalf("step %d: state diverged\n got %+v\nwant %+v", step, gs, ws)
		}
	}
	if probes == 0 || scans == 0 || belowHits == 0 {
		t.Fatalf("churn missed a path: %d probe, %d scan, %d lo-1 hits", probes, scans, belowHits)
	}
	t.Logf("%d probe-path and %d scan-path invalidations, %d lo-1 hits", probes, scans, belowHits)
}
