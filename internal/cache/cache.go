// Package cache models set-associative write-back, write-allocate caches and
// the three-level on-chip hierarchy of Table 1. The caches are address-type
// agnostic: they index by 64-byte line address, which may be a virtual,
// VBI, intermediate or physical address depending on the system being
// simulated (conventional systems index by physical address after
// translation, while VBI/VIVT/Enigma systems index caches purely virtually,
// §3.5).
package cache

import (
	"fmt"
	"slices"
)

// LineShift is log2 of the cache line size (64 B).
const LineShift = 6

// LineSize is the cache line size in bytes.
const LineSize = 1 << LineShift

// LineOf returns the line address (low 6 bits cleared) containing a.
func LineOf(a uint64) uint64 { return a &^ (LineSize - 1) }

// Stats holds per-cache event counters.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// Tag-word flags. Line addresses are LineSize-aligned, so their low bits
// are free to carry a way's state; a zero word is an empty way.
const (
	validBit = 1 << 0
	dirtyBit = 1 << 1
)

// Cache is one set-associative write-back cache level. Line addresses
// passed to it must be LineSize-aligned (Hierarchy always passes LineOf
// addresses); Insert panics on an unaligned line.
//
// The probe path is map-free and reads only tags: each way is one uint64
// packing the line address with validBit and dirtyBit, and a set is a
// contiguous run of ways in one flat array. A set is kept in recency
// order — way 0 is the MRU line, valid lines precede empty ways, and the
// last valid way is the LRU victim — so a hit moves its tag to the front.
// Probes never allocate.
type Cache struct {
	Name string
	// Stats accumulates hit/miss/eviction counts.
	Stats Stats

	sets     int
	ways     int
	setMask  uint64
	tags     []uint64 // sets*ways tag words, row-major by set, each set MRU first
	occupied int      // valid lines, maintained by Insert/Invalidate
}

// New builds a cache of sizeBytes capacity and the given associativity.
// sizeBytes must be a multiple of ways*LineSize and the set count must be a
// power of two; New panics otherwise (configuration error).
func New(name string, sizeBytes, ways int) *Cache {
	if ways <= 0 || sizeBytes%(ways*LineSize) != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d ways=%d", name, sizeBytes, ways))
	}
	sets := sizeBytes / (ways * LineSize)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	return &Cache{
		Name:    name,
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*ways),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) setOf(line uint64) int {
	return int((line >> LineShift) & c.setMask)
}

// set returns the line's set: its ways in recency order, MRU first.
//
//vbi:hotpath
func (c *Cache) set(line uint64) []uint64 {
	base := c.setOf(line) * c.ways
	return c.tags[base : base+c.ways : base+c.ways]
}

// find returns the way holding line within set, or -1. It is the one
// tag-match loop every probe shares: the dirty bit is masked off, and the
// valid bit in the wanted word keeps an empty (zero) way from matching.
//
//vbi:hotpath
func find(set []uint64, line uint64) int {
	want := line | validBit
	for i, tag := range set {
		if tag&^dirtyBit == want {
			return i
		}
	}
	return -1
}

// touch moves the tag at way i to the front of its set (MRU), ORing in
// flags. A hit on the MRU way moves nothing.
//
//vbi:hotpath
func touch(set []uint64, i int, flags uint64) {
	tag := set[i] | flags
	if i > 0 {
		copy(set[1:i+1], set[:i])
	}
	set[0] = tag
}

// Lookup probes for the line, updating recency and (for writes) the dirty
// bit. It reports whether the line was present and does not allocate.
//
//vbi:hotpath
func (c *Cache) Lookup(line uint64, write bool) bool {
	set := c.set(line)
	if i := find(set, line); i >= 0 {
		var flags uint64
		if write {
			flags = dirtyBit
		}
		touch(set, i, flags)
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	return false
}

// MarkDirty updates recency and sets the dirty bit exactly like a write
// hit but never touches Stats. It reports whether the line was present.
// The hierarchy uses it for internal bookkeeping probes (recording dirty
// state at the LLC on writeback spills) that are not demand accesses and
// must not inflate the demand hit/miss counters.
//
//vbi:hotpath
func (c *Cache) MarkDirty(line uint64) bool {
	set := c.set(line)
	if i := find(set, line); i >= 0 {
		touch(set, i, dirtyBit)
		return true
	}
	return false
}

// Contains probes without perturbing recency or statistics (for tests and
// back-invalidation checks).
func (c *Cache) Contains(line uint64) bool {
	return find(c.set(line), line) >= 0
}

// IsDirty reports whether the line is present and dirty, without
// perturbing recency or statistics.
func (c *Cache) IsDirty(line uint64) bool {
	set := c.set(line)
	i := find(set, line)
	return i >= 0 && set[i]&dirtyBit != 0
}

// Victim describes a line evicted by Insert.
type Victim struct {
	Line  uint64
	Dirty bool
	Valid bool
}

// Insert fills the line into its set as the MRU line, evicting the LRU
// line if the set is full; a line already present is moved to the front
// with its dirty state merged. The returned victim is Valid when a live
// line was displaced. Insert panics on a line that is not LineSize-aligned
// and never allocates.
//
//vbi:hotpath
func (c *Cache) Insert(line uint64, dirty bool) Victim {
	if line&(LineSize-1) != 0 {
		c.panicUnaligned(line)
	}
	var flags uint64
	if dirty {
		flags = dirtyBit
	}
	set := c.set(line)
	if i := find(set, line); i >= 0 {
		// Already present (e.g. racing fill): just merge dirty state.
		touch(set, i, flags)
		return Victim{}
	}
	// Valid lines precede empty ways, so the last way is either empty or
	// the LRU line.
	var v Victim
	if last := set[len(set)-1]; last != 0 {
		v = Victim{Line: last &^ (validBit | dirtyBit), Dirty: last&dirtyBit != 0, Valid: true}
		c.occupied--
		c.Stats.Evictions++
		if v.Dirty {
			c.Stats.Writebacks++
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line | validBit | flags
	c.occupied++
	return v
}

// panicUnaligned is Insert's cold failure path, kept out of line so the
// message formatting stays off the hot path.
//
//go:noinline
func (c *Cache) panicUnaligned(line uint64) {
	panic(fmt.Sprintf("cache %s: Insert of unaligned line %#x", c.Name, line))
}

// Invalidate drops the line if present, returning whether it was dirty.
// The ways behind it shift forward, keeping the set in recency order.
func (c *Cache) Invalidate(line uint64) (wasPresent, wasDirty bool) {
	set := c.set(line)
	i := find(set, line)
	if i < 0 {
		return false, false
	}
	wasDirty = set[i]&dirtyBit != 0
	copy(set[i:], set[i+1:])
	set[len(set)-1] = 0
	c.occupied--
	return true, wasDirty
}

// InvalidateAll empties the cache in place: the flat array is cleared
// without reallocating, so repeated invalidate/refill cycles are
// allocation-free.
func (c *Cache) InvalidateAll() {
	clear(c.tags)
	c.occupied = 0
}

// InvalidateIf drops every line for which pred returns true (used for the
// lazy cache cleanup after disable_vb, §4.2.4) and returns the count.
// This is the cold path: it collects and sorts the live line addresses
// before calling pred or mutating, because an array-order walk would visit
// lines in (set, way) placement order — a function of recency — and the
// invalidation sequence (and a stateful pred's view) must depend only on
// cache contents.
func (c *Cache) InvalidateIf(pred func(line uint64) bool) int {
	lines := make([]uint64, 0, c.occupied)
	for _, tag := range c.tags {
		if tag != 0 {
			lines = append(lines, tag&^(validBit|dirtyBit))
		}
	}
	slices.Sort(lines)
	doomed := 0
	for _, line := range lines {
		if pred(line) {
			c.Invalidate(line)
			doomed++
		}
	}
	return doomed
}

// OccupiedLines returns the number of valid lines (for tests).
func (c *Cache) OccupiedLines() int { return c.occupied }
