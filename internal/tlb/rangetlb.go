package tlb

import "slices"

// RangeEntry is a variable-granularity translation: VBI addresses in
// [Base, Base+Size) map to physical addresses starting at Phys. A
// directly-mapped VB needs a single entry covering the whole VB (§5.2,
// §5.3); page-granularity mappings use Size = 4096.
type RangeEntry struct {
	Base uint64
	Size uint64
	Phys uint64
}

// Contains reports whether the entry translates address a.
func (e RangeEntry) Contains(a uint64) bool {
	return a >= e.Base && a-e.Base < e.Size
}

// Translate maps a (which must be contained) to its physical address.
func (e RangeEntry) Translate(a uint64) uint64 {
	return e.Phys + (a - e.Base)
}

const pageShift = 12

// noSlot terminates the intrusive LRU list and marks empty pageIndex
// positions.
const noSlot int32 = -1

// pageIndex maps page numbers to slot indexes through open addressing:
// a power-of-two table at most half full (sized to 2× the TLB capacity),
// linear probing, and backward-shift deletion instead of tombstones. It
// replaces the map the RangeTLB previously kept — same contract, but the
// probe loop touches one cache line per step, never allocates, and never
// rehashes, which is what the per-reference hot loop wants.
type pageIndex struct {
	keys  []uint64
	slots []int32 // noSlot = empty position
	mask  uint64
	shift uint
	n     int
}

func newPageIndex(capacity int) pageIndex {
	size := 8
	for size < 2*capacity {
		size <<= 1
	}
	p := pageIndex{
		keys:  make([]uint64, size),
		slots: make([]int32, size),
		mask:  uint64(size - 1),
		shift: uint(64 - bitsLen(size-1)),
	}
	p.reset()
	return p
}

// bitsLen is bits.Len for the one constructor-time call (kept local so
// the hot path imports nothing).
func bitsLen(v int) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

func (p *pageIndex) reset() {
	for i := range p.slots {
		p.slots[i] = noSlot
	}
	p.n = 0
}

// home is Fibonacci hashing: the multiply spreads strided page numbers,
// the high bits index the table. Sequential page numbers (the common
// trace pattern) stay collision-free.
//
//vbi:hotpath
func (p *pageIndex) home(pn uint64) uint64 {
	return (pn * 0x9E3779B97F4A7C15) >> p.shift
}

//vbi:hotpath
func (p *pageIndex) get(pn uint64) (int32, bool) {
	for i := p.home(pn); ; i = (i + 1) & p.mask {
		s := p.slots[i]
		if s == noSlot {
			return noSlot, false
		}
		if p.keys[i] == pn {
			return s, true
		}
	}
}

// put inserts or overwrites. The table is at most half full (occupancy is
// bounded by the TLB capacity), so the probe always finds a position.
//
//vbi:hotpath
func (p *pageIndex) put(pn uint64, slot int32) {
	for i := p.home(pn); ; i = (i + 1) & p.mask {
		if p.slots[i] == noSlot {
			p.keys[i], p.slots[i] = pn, slot
			p.n++
			return
		}
		if p.keys[i] == pn {
			p.slots[i] = slot
			return
		}
	}
}

// del removes pn, backward-shifting the rest of its probe cluster so no
// chain is ever broken: a follower moves into the hole unless its home
// position sits strictly after the hole (cyclically), in which case the
// hole cannot be on its probe path.
//
//vbi:hotpath
func (p *pageIndex) del(pn uint64) {
	i := p.home(pn)
	for ; ; i = (i + 1) & p.mask {
		if p.slots[i] == noSlot {
			return
		}
		if p.keys[i] == pn {
			break
		}
	}
	p.n--
	hole := i
	for j := (i + 1) & p.mask; p.slots[j] != noSlot; j = (j + 1) & p.mask {
		if ((j - p.home(p.keys[j])) & p.mask) >= ((j - hole) & p.mask) {
			p.keys[hole], p.slots[hole] = p.keys[j], p.slots[j]
			hole = j
		}
	}
	p.slots[hole] = noSlot
}

type rangeSlot struct {
	e     RangeEntry
	prev  int32 // toward LRU head (older)
	next  int32 // toward MRU tail (newer)
	valid bool
}

// RangeTLB is a fully-associative TLB whose entries cover arbitrary
// power-of-two-aligned ranges. All entries live in a flat, pre-allocated
// slot array recycled through a free list, so steady-state Insert (and
// eviction) never allocates. Page-sized entries (the common case) are
// indexed by page number for O(1) lookup; larger entries are tracked in a
// small insertion-ordered index list (their count is bounded by the number
// of live VBs, which is small — §4.3 observes most programs need a few
// tens of VBs).
//
// Recency is an intrusive doubly-linked list threaded through the slots:
// every hit, refresh or insert moves the slot to the MRU tail, so the LRU
// victim is always the head — O(1), no scan, no per-entry stamp. This is
// observably identical to the tick/used stamping it replaced: stamps were
// unique (the tick advanced before every assignment), so "minimum stamp"
// and "least recently moved to the tail" name the same entry, and the old
// page-over-big tie-break was unreachable.
type RangeTLB struct {
	Name     string
	Stats    Stats
	capacity int

	slots []rangeSlot // capacity slots, both entry kinds
	free  []int32     // invalid slot indexes (LIFO)
	pages pageIndex   // page-number -> slot index, for Size<=4096 entries
	big   []int32     // slot indexes of Size>4096 entries, insertion order
	head  int32       // LRU end of the recency list (eviction victim)
	tail  int32       // MRU end of the recency list

	// doomed is InvalidateRange's scan-path scratch: the page keys to drop,
	// sorted before removal. Pre-sized to capacity, so it never grows.
	doomed []uint64
}

// NewRange builds a RangeTLB holding up to capacity entries.
func NewRange(name string, capacity int) *RangeTLB {
	if capacity <= 0 {
		panic("tlb: bad range capacity")
	}
	t := &RangeTLB{
		Name:     name,
		capacity: capacity,
		slots:    make([]rangeSlot, capacity),
		free:     make([]int32, capacity),
		pages:    newPageIndex(capacity),
		big:      make([]int32, 0, capacity),
		head:     noSlot,
		tail:     noSlot,
		doomed:   make([]uint64, 0, capacity),
	}
	t.resetFree()
	return t
}

// resetFree rebuilds the free list over all slots. Highest index first, so
// slots are handed out in ascending order (pop from the tail).
func (t *RangeTLB) resetFree() {
	t.free = t.free[:cap(t.free)]
	for i := range t.free {
		t.free[i] = int32(t.capacity - 1 - i)
	}
}

// Entries returns the TLB capacity.
func (t *RangeTLB) Entries() int { return t.capacity }

// Occupied returns the number of live entries.
func (t *RangeTLB) Occupied() int { return t.pages.n + len(t.big) }

// touch moves slot i to the MRU tail of the recency list.
//
//vbi:hotpath
func (t *RangeTLB) touch(i int32) {
	if t.tail == i {
		return
	}
	t.unlink(i)
	t.pushTail(i)
}

// unlink removes slot i from the recency list.
//
//vbi:hotpath
func (t *RangeTLB) unlink(i int32) {
	s := &t.slots[i]
	if s.prev != noSlot {
		t.slots[s.prev].next = s.next
	} else {
		t.head = s.next
	}
	if s.next != noSlot {
		t.slots[s.next].prev = s.prev
	} else {
		t.tail = s.prev
	}
}

// pushTail appends slot i at the MRU tail of the recency list.
//
//vbi:hotpath
func (t *RangeTLB) pushTail(i int32) {
	s := &t.slots[i]
	s.prev = t.tail
	s.next = noSlot
	if t.tail != noSlot {
		t.slots[t.tail].next = i
	} else {
		t.head = i
	}
	t.tail = i
}

// Lookup probes for a translation covering address a. Lookup never
// allocates.
//
//vbi:hotpath
func (t *RangeTLB) Lookup(a uint64) (RangeEntry, bool) {
	if i, ok := t.pages.get(a >> pageShift); ok {
		t.touch(i)
		t.Stats.Hits++
		return t.slots[i].e, true
	}
	for _, i := range t.big {
		if t.slots[i].e.Contains(a) {
			t.touch(i)
			t.Stats.Hits++
			return t.slots[i].e, true
		}
	}
	t.Stats.Misses++
	return RangeEntry{}, false
}

// Insert caches the translation, evicting the global LRU entry when full.
// Inserting a range that duplicates an existing base refreshes it. Insert
// recycles slots through the free list and never allocates in steady
// state.
//
//vbi:hotpath
func (t *RangeTLB) Insert(e RangeEntry) {
	if e.Size <= 1<<pageShift {
		pn := e.Base >> pageShift
		if i, ok := t.pages.get(pn); ok {
			t.slots[i].e = e
			t.touch(i)
			return
		}
		t.evictIfFull()
		t.pages.put(pn, t.takeSlot(e))
		return
	}
	for _, i := range t.big {
		if t.slots[i].e.Base == e.Base && t.slots[i].e.Size == e.Size {
			t.slots[i].e = e
			t.touch(i)
			return
		}
	}
	t.evictIfFull()
	//vbi:allow hotalloc append stays within the capacity pre-sized in NewRange; evictions push indexes back to the free list, never shrink it
	t.big = append(t.big, t.takeSlot(e))
}

// takeSlot pops a free slot, fills it with e and makes it the MRU entry.
//
//vbi:hotpath
func (t *RangeTLB) takeSlot(e RangeEntry) int32 {
	i := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.slots[i] = rangeSlot{e: e, valid: true}
	t.pushTail(i)
	return i
}

// dropSlot invalidates a slot and returns it to the free list.
func (t *RangeTLB) dropSlot(i int32) {
	t.unlink(i)
	t.slots[i] = rangeSlot{}
	//vbi:allow hotalloc append stays within the capacity allocated in NewRange: the free list never holds more than capacity indexes
	t.free = append(t.free, i)
}

// evictIfFull drops the LRU entry — the recency-list head — to make room.
//
//vbi:hotpath
func (t *RangeTLB) evictIfFull() {
	if t.Occupied() < t.capacity {
		return
	}
	victim := t.head
	s := &t.slots[victim]
	if s.e.Size <= 1<<pageShift {
		t.pages.del(s.e.Base >> pageShift)
	} else {
		for bi, i := range t.big {
			if i == victim {
				//vbi:allow hotalloc removal by shifting in place: the result is shorter than t.big, so append never grows it
				t.big = append(t.big[:bi], t.big[bi+1:]...)
				break
			}
		}
	}
	t.dropSlot(victim)
	t.Stats.Evictions++
}

// InvalidateRange drops every entry overlapping [base, base+size) and
// returns how many it dropped (used by disable_vb, promote_vb, copy-on-write
// resolution and migration, which invalidates once per moved 4 KB region).
//
// A page entry keyed pn has Size <= 4096, so it lies inside
// [pn<<12, (pn+2)<<12): only keys in [lo-1, hi], with lo = base>>12 and
// hi = (base+size-1)>>12, can overlap the range (an unaligned entry keyed
// lo-1 can reach into page lo). When that window is no wider than the page
// index, each of its keys is probed in ascending order; a wider range (a
// whole VB on disable or downgrade) scans the index and sorts the keys it
// collects instead. Both paths drop page entries in ascending page-number
// order, then the big entries, so the free-list recycle order is a
// function of TLB contents alone, whichever path ran.
//
//vbi:hotpath
func (t *RangeTLB) InvalidateRange(base, size uint64) int {
	n := 0
	lo, hi := max(base>>pageShift, 1)-1, (base+size-1)>>pageShift
	if base+size > base && hi-lo < uint64(len(t.pages.slots)) {
		for pn := lo; pn <= hi; pn++ {
			if i, ok := t.pages.get(pn); ok && t.slots[i].e.overlaps(base, size) {
				t.dropSlot(i)
				t.pages.del(pn)
				n++
			}
		}
	} else {
		t.doomed = t.doomed[:0]
		for j, slot := range t.pages.slots {
			if slot != noSlot && t.slots[slot].e.overlaps(base, size) {
				//vbi:allow hotalloc append stays within the capacity pre-sized in NewRange: at most capacity page entries are live
				t.doomed = append(t.doomed, t.pages.keys[j])
			}
		}
		slices.Sort(t.doomed)
		for _, pn := range t.doomed {
			i, _ := t.pages.get(pn)
			t.dropSlot(i)
			t.pages.del(pn)
		}
		n = len(t.doomed)
	}
	kept := t.big[:0]
	for _, i := range t.big {
		if t.slots[i].e.overlaps(base, size) {
			t.dropSlot(i)
			n++
			continue
		}
		//vbi:allow hotalloc filtering in place: kept aliases t.big and never outgrows it
		kept = append(kept, i)
	}
	t.big = kept
	return n
}

// overlaps reports whether the entry intersects [base, base+size).
func (e RangeEntry) overlaps(base, size uint64) bool {
	return e.Base+e.Size > base && e.Base < base+size
}

// InvalidateAll empties the TLB in place: the slot array, free list, page
// index and recency list are reset without reallocating, so repeated
// invalidate/refill cycles are allocation-free.
func (t *RangeTLB) InvalidateAll() {
	for i := range t.slots {
		t.slots[i] = rangeSlot{}
	}
	t.pages.reset()
	t.resetFree()
	t.big = t.big[:0]
	t.head, t.tail = noSlot, noSlot
}
