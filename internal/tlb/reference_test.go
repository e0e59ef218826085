package tlb

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// refEntry and refTLB are the per-way LRU-stamp TLB that recency-ordered
// sets replaced, kept as a reference model: every entry carries a valid
// flag and a unique `used` stamp from a monotonic tick; an insert fills the
// first invalid way by index, else the minimum stamp.
type refEntry struct {
	key, value uint64
	valid      bool
	used       uint64
}

type refTLB struct {
	Stats      Stats
	sets, ways int
	setMask    uint64
	entries    []refEntry
	tick       uint64
	occupied   int
}

func newRefTLB(sets, ways int) *refTLB {
	return &refTLB{sets: sets, ways: ways, setMask: uint64(sets - 1), entries: make([]refEntry, sets*ways)}
}

func (t *refTLB) Lookup(key uint64) (uint64, bool) {
	base := int(key&t.setMask) * t.ways
	for i := base; i < base+t.ways; i++ {
		if t.entries[i].valid && t.entries[i].key == key {
			t.tick++
			t.entries[i].used = t.tick
			t.Stats.Hits++
			return t.entries[i].value, true
		}
	}
	t.Stats.Misses++
	return 0, false
}

func (t *refTLB) Insert(key, value uint64) {
	base := int(key&t.setMask) * t.ways
	victim := base
	var oldest uint64 = ^uint64(0)
	for i := base; i < base+t.ways; i++ {
		if t.entries[i].valid && t.entries[i].key == key {
			t.tick++
			t.entries[i].value = value
			t.entries[i].used = t.tick
			return
		}
		if !t.entries[i].valid {
			if oldest != 0 {
				victim = i
				oldest = 0
			}
			continue
		}
		if t.entries[i].used < oldest {
			oldest = t.entries[i].used
			victim = i
		}
	}
	if t.entries[victim].valid {
		t.occupied--
		t.Stats.Evictions++
	}
	t.tick++
	t.entries[victim] = refEntry{key: key, value: value, valid: true, used: t.tick}
	t.occupied++
}

func (t *refTLB) InvalidateAll() {
	for i := range t.entries {
		t.entries[i] = refEntry{}
	}
	t.occupied = 0
}

func (t *refTLB) InvalidateIf(pred func(key uint64) bool) int {
	var keys []uint64
	for i := range t.entries {
		if t.entries[i].valid {
			keys = append(keys, t.entries[i].key)
		}
	}
	slices.Sort(keys)
	doomed := 0
	for _, k := range keys {
		if pred(k) {
			base := int(k&t.setMask) * t.ways
			for i := base; i < base+t.ways; i++ {
				if t.entries[i].valid && t.entries[i].key == k {
					t.entries[i] = refEntry{}
					t.occupied--
					break
				}
			}
			doomed++
		}
	}
	return doomed
}

// victimOrder lists the set's valid keys from the next victim to the MRU
// entry: ascending stamps.
func (t *refTLB) victimOrder(set int) []uint64 {
	live := slices.Clone(t.entries[set*t.ways : (set+1)*t.ways])
	live = slices.DeleteFunc(live, func(e refEntry) bool { return !e.valid })
	slices.SortFunc(live, func(a, b refEntry) int { return cmp.Compare(a.used, b.used) })
	keys := make([]uint64, len(live))
	for i, e := range live {
		keys[i] = e.key
	}
	return keys
}

// victimOrder lists the set's valid keys from the next victim to the MRU
// entry: its live prefix, reversed.
func (t *TLB) victimOrder(set int) []uint64 {
	live := t.set(set)
	keys := make([]uint64, len(live))
	for i, e := range live {
		keys[len(live)-1-i] = e.key
	}
	return keys
}

// TestTLBMatchesStampReference drives the recency-ordered TLB and the
// stamp reference in step through a seeded churn of lookups, inserts
// of present keys (value refresh) and absent keys, InvalidateIf (which
// removes entries mid-set) and InvalidateAll, over geometries from one
// entry to a 32-way set, including a fully associative 64-way TLB and a
// 12-way (non-power-of-two) one. Key 0 is in the key space: keys are
// opaque, so no key value may stand for "empty". After every operation the
// returned values, Stats, occupancy, the key sequence InvalidateIf hands
// its predicate and every set's victim order must agree exactly.
func TestTLBMatchesStampReference(t *testing.T) {
	geoms := []struct{ sets, ways int }{{1, 1}, {1, 64}, {16, 4}, {8, 8}, {4, 12}, {2, 32}}
	steps := 20_000
	if testing.Short() {
		steps = 5_000
	}
	for gi, g := range geoms {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			got, want := New("t", g.sets, g.ways), newRefTLB(g.sets, g.ways)
			rng := uint64(gi + 1)
			next := func() uint64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return rng >> 16
			}
			span := uint64(3 * g.sets * g.ways)
			var evictions, dropped int
			for step := 0; step < steps; step++ {
				key := next() % span
				switch op := next() % 1000; {
				case op < 450:
					gv, gok := got.Lookup(key)
					wv, wok := want.Lookup(key)
					if gv != wv || gok != wok {
						t.Fatalf("step %d: Lookup(%d) = %d,%v, reference %d,%v", step, key, gv, gok, wv, wok)
					}
				case op < 950:
					v := next()
					got.Insert(key, v)
					want.Insert(key, v)
				case op < 996:
					var gs, ws []uint64
					mod := 2 + next()%4
					n := got.InvalidateIf(func(k uint64) bool { gs = append(gs, k); return k%mod == 0 })
					m := want.InvalidateIf(func(k uint64) bool { ws = append(ws, k); return k%mod == 0 })
					if n != m || !slices.Equal(gs, ws) {
						t.Fatalf("step %d: InvalidateIf dropped %d visiting %v, reference %d visiting %v", step, n, gs, m, ws)
					}
					dropped += n
				default:
					got.InvalidateAll()
					want.InvalidateAll()
				}
				if got.Stats != want.Stats || got.Occupied() != want.occupied {
					t.Fatalf("step %d: stats %+v occupied %d, reference %+v occupied %d",
						step, got.Stats, got.Occupied(), want.Stats, want.occupied)
				}
				evictions = int(got.Stats.Evictions)
				for set := 0; set < g.sets; set++ {
					if gv, wv := got.victimOrder(set), want.victimOrder(set); !slices.Equal(gv, wv) {
						t.Fatalf("step %d: set %d victim order %v, reference %v", step, set, gv, wv)
					}
				}
			}
			if evictions == 0 || dropped == 0 {
				t.Fatalf("churn missed a path: %d evictions, %d dropped", evictions, dropped)
			}
		})
	}
}

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
// invalidated only through refInvalidateRange in step through a seeded
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
