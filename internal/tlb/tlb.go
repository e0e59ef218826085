// Package tlb models the translation-caching structures of Table 1: the
// per-core L1/L2 TLBs of conventional systems, the page-walk caches that
// accelerate radix walks (including the nested/2D page-walk cache of
// virtualized systems), and the range-granularity TLB used by the VBI
// Memory Translation Layer, whose entries may cover anything from one 4 KB
// page to an entire directly-mapped VB (§5.2).
package tlb

import "slices"

// Stats counts TLB events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

type entry struct {
	key   uint64
	value uint64
}

// TLB is a set-associative translation buffer over opaque uint64 keys
// (callers compose the key from ASID and virtual page number). A fully
// associative TLB is one with sets == 1. The probe path is map-free: the
// set is a direct index into the flattened entries array and the key match
// is a linear scan over the set's live entries. Probes never allocate.
//
// Each set is kept in recency order: its first live[set] entries are
// valid, MRU first, so the last live entry is the LRU victim and a hit
// moves its entry to the front. Keys are opaque (every value is a legal
// key), so validity is the per-set live count rather than a flag or a
// reserved key.
type TLB struct {
	Name  string
	Stats Stats

	sets, ways int
	setMask    uint64
	entries    []entry // sets*ways, row-major by set, each set MRU first
	live       []int32 // valid entries per set: a prefix of the set's ways
	occupied   int     // valid entries, maintained by Insert/invalidation
}

// New builds a TLB with the given geometry; entries = sets*ways. The set
// count must be a power of two.
func New(name string, sets, ways int) *TLB {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic("tlb: bad geometry")
	}
	return &TLB{
		Name:    name,
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		entries: make([]entry, sets*ways),
		live:    make([]int32, sets),
	}
}

// Entries returns the TLB capacity.
func (t *TLB) Entries() int { return t.sets * t.ways }

// set returns set s's valid entries in recency order, MRU first.
//
//vbi:hotpath
func (t *TLB) set(s int) []entry {
	base := s * t.ways
	return t.entries[base : base+int(t.live[s])]
}

// Lookup probes for key, returning its cached value. Hit/miss statistics
// and recency are updated. Lookup never allocates. It is kept within the
// compiler's inlining budget, and a hit already at the front writes
// nothing back.
//
//vbi:hotpath
func (t *TLB) Lookup(key uint64) (uint64, bool) {
	set := t.set(int(key & t.setMask))
	for i, e := range set {
		if e.key == key {
			if i > 0 {
				copy(set[1:i+1], set[:i])
				set[0] = e
			}
			t.Stats.Hits++
			return e.value, true
		}
	}
	t.Stats.Misses++
	return 0, false
}

// Insert caches key -> value as its set's MRU entry, evicting the set's
// LRU entry if the set is full; a key already present has its value
// refreshed and moves to the front. Insert never allocates.
//
//vbi:hotpath
func (t *TLB) Insert(key, value uint64) {
	s := int(key & t.setMask)
	set := t.set(s)
	n := len(set)
	for i := range set {
		if set[i].key == key {
			n = i
			break
		}
	}
	switch {
	case n < len(set): // present: no eviction, no growth
	case n == t.ways:
		n--
		t.Stats.Evictions++
	default:
		set = set[:n+1]
		t.live[s]++
		t.occupied++
	}
	copy(set[1:n+1], set[:n])
	set[0] = entry{key: key, value: value}
}

// InvalidateAll empties the TLB (context switch without ASIDs, disable_vb)
// in place by zeroing the per-set live counts, so repeated
// invalidate/refill cycles are allocation-free.
func (t *TLB) InvalidateAll() {
	clear(t.live)
	t.occupied = 0
}

// InvalidateIf drops entries whose key matches pred, returning the count.
// This is the cold path: live keys are collected and sorted before pred
// runs, because an array-order walk would visit entries in (set, way)
// placement order — a function of recency — and the drop sequence (and a
// stateful pred's view) must depend only on TLB contents.
func (t *TLB) InvalidateIf(pred func(key uint64) bool) int {
	keys := make([]uint64, 0, t.occupied)
	for s := range t.live {
		for _, e := range t.set(s) {
			keys = append(keys, e.key)
		}
	}
	slices.Sort(keys)
	doomed := 0
	for _, k := range keys {
		if pred(k) {
			s := int(k & t.setMask)
			set := t.set(s)
			for i := range set {
				if set[i].key == k {
					copy(set[i:], set[i+1:])
					t.live[s]--
					t.occupied--
					break
				}
			}
			doomed++
		}
	}
	return doomed
}

// Occupied returns the number of valid entries (for tests).
func (t *TLB) Occupied() int { return t.occupied }
