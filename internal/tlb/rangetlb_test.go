package tlb

import "testing"

// Repeated InvalidateAll/refill cycles must not allocate: the slot array,
// free list, page index and big-entry list are all reset in place.
func TestRangeTLBInvalidateRefillNoAllocs(t *testing.T) {
	tl := NewRange("mtl-l1", 64)
	refill := func() {
		for i := uint64(0); i < 60; i++ {
			tl.Insert(RangeEntry{Base: i << pageShift, Size: 4096, Phys: i << pageShift})
		}
		tl.Insert(RangeEntry{Base: 1 << 30, Size: 1 << 21, Phys: 1 << 30})
	}
	refill()
	allocs := testing.AllocsPerRun(100, func() {
		tl.InvalidateAll()
		refill()
	})
	if allocs != 0 {
		t.Fatalf("invalidate/refill cycle allocates %v times", allocs)
	}
}

// Range invalidation must not allocate on either path: the per-page probe
// (a migrated 4 KB region) or the scan fallback for a range wider than the
// page index (a whole VB), whose doomed-key scratch is reused.
func TestRangeTLBInvalidateRangeNoAllocs(t *testing.T) {
	tl := NewRange("mtl-l1", 64) // 128-position page index
	refill := func() {
		for i := uint64(0); i < 60; i++ {
			tl.Insert(RangeEntry{Base: i << pageShift, Size: 4096, Phys: i << pageShift})
		}
		tl.Insert(RangeEntry{Base: 1 << 30, Size: 1 << 21, Phys: 1 << 30})
	}
	refill()
	var dropped int
	allocs := testing.AllocsPerRun(100, func() {
		dropped = 0
		for i := uint64(0); i < 60; i++ {
			dropped += tl.InvalidateRange(i<<pageShift, 4096)
		}
		refill()
		dropped += tl.InvalidateRange(0, 1<<31)
		refill()
	})
	if allocs != 0 {
		t.Fatalf("InvalidateRange allocates %v times per cycle", allocs)
	}
	if dropped != 60+61 {
		t.Fatalf("a cycle dropped %d entries, want 121", dropped)
	}
}

// TestPageIndexMatchesMap drives the open-addressing page index through a
// deterministic churn of puts, overwrites, deletes and probes over a key
// space small enough to force probe clusters (and backward shifts across
// the table's wraparound), checking every observable against a plain map.
func TestPageIndexMatchesMap(t *testing.T) {
	p := newPageIndex(16) // 32 positions
	ref := map[uint64]int32{}
	rng := uint64(1)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 16
	}
	for step := 0; step < 50_000; step++ {
		pn := next() % 24
		switch next() % 3 {
		case 0:
			// Respect the half-full bound the RangeTLB guarantees: new
			// keys only while under capacity, overwrites always.
			_, exists := ref[pn]
			if exists || len(ref) < 16 {
				slot := int32(step % 97)
				p.put(pn, slot)
				ref[pn] = slot
			}
		case 1:
			p.del(pn)
			delete(ref, pn)
		case 2:
		}
		got, ok := p.get(pn)
		want, wok := ref[pn]
		if ok != wok || (ok && got != want) {
			t.Fatalf("step %d: get(%d) = %d,%v, want %d,%v", step, pn, got, ok, want, wok)
		}
		if p.n != len(ref) {
			t.Fatalf("step %d: n = %d, want %d", step, p.n, len(ref))
		}
	}
	for pn := uint64(0); pn < 24; pn++ {
		p.del(pn)
	}
	if p.n != 0 {
		t.Fatalf("drained index still holds %d entries", p.n)
	}
}

// TestRangeTLBMatchesRecencyModel runs the TLB in step with a naive
// recency-list model (a slice ordered LRU→MRU) through a deterministic
// mix of lookups, inserts past capacity and range invalidations: hit and
// eviction behavior of the flattened index must be exactly the model's,
// which is what "byte-identical to the map it replaced" means — both
// implement this model.
func TestRangeTLBMatchesRecencyModel(t *testing.T) {
	const capacity = 16
	tl := NewRange("model", capacity)
	var model []RangeEntry // index 0 = LRU, last = MRU
	find := func(a uint64) int {
		for i, e := range model {
			if e.Contains(a) {
				return i
			}
		}
		return -1
	}
	touch := func(i int) {
		e := model[i]
		model = append(model[:i], model[i+1:]...)
		model = append(model, e)
	}
	rng := uint64(7)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 16
	}
	for step := 0; step < 30_000; step++ {
		switch next() % 8 {
		case 7:
			// Invalidate a span of one region or the other (disjoint, so
			// the model's single recency list mirrors the TLB's split
			// page/big bookkeeping unambiguously).
			base, size := (next()%40)<<pageShift, uint64(16)<<pageShift
			if next()%2 == 0 {
				base, size = 1<<30|(next()%4)<<21, 1<<21
			}
			tl.InvalidateRange(base, size)
			kept := model[:0]
			for _, e := range model {
				if !(e.Base+e.Size > base && e.Base < base+size) {
					kept = append(kept, e)
				}
			}
			model = kept
		case 6:
			// A big (2 MiB) entry in its own region above the page keys.
			e := RangeEntry{Base: 1<<30 | (next()%4)<<21, Size: 1 << 21}
			e.Phys = e.Base
			bi := -1
			for i, m := range model {
				if m.Base == e.Base && m.Size == e.Size {
					bi = i
					break
				}
			}
			if bi >= 0 {
				touch(bi)
			} else {
				if len(model) == capacity {
					model = model[1:]
				}
				model = append(model, e)
			}
			tl.Insert(e)
		default:
			a := (next() % 40) << pageShift
			_, hit := tl.Lookup(a)
			i := find(a)
			if hit != (i >= 0) {
				t.Fatalf("step %d: lookup(%#x) hit=%v, model says %v", step, a, hit, i >= 0)
			}
			if i >= 0 {
				touch(i)
			} else {
				e := RangeEntry{Base: a &^ (1<<pageShift - 1), Size: 4096, Phys: a}
				if len(model) == capacity {
					model = model[1:]
				}
				model = append(model, e)
				tl.Insert(e)
			}
		}
		if tl.Occupied() != len(model) {
			t.Fatalf("step %d: occupied %d, model %d", step, tl.Occupied(), len(model))
		}
	}
}

// Steady-state churn past capacity — hits, misses, insertions, evictions of
// both entry kinds — must not allocate either.
func TestRangeTLBChurnNoAllocs(t *testing.T) {
	tl := NewRange("mtl-l1", 32)
	allocs := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 64; i++ {
			a := (i % 48) << pageShift
			if _, ok := tl.Lookup(a); !ok {
				tl.Insert(RangeEntry{Base: a, Size: 4096, Phys: a})
			}
			if i%8 == 0 {
				tl.Insert(RangeEntry{Base: 1 << 30, Size: 1 << 21, Phys: 1 << 30})
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocates %v times", allocs)
	}
}
