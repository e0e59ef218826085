package cache

// Latencies holds the cumulative hit latencies of the hierarchy (cycles).
// Table 1: L1 4 cycles, L2 8 cycles, L3 31 cycles; we interpret each as the
// additional lookup latency of that level along the miss path.
type Latencies struct {
	L1  uint64 // L1 hit latency
	L2  uint64 // additional L2 lookup latency
	LLC uint64 // additional LLC lookup latency
}

// DefaultLatencies mirrors Table 1.
var DefaultLatencies = Latencies{L1: 4, L2: 8, LLC: 31}

// L1Hit returns the total latency of an L1 hit.
func (l Latencies) L1Hit() uint64 { return l.L1 }

// L2Hit returns the total latency of an L2 hit.
func (l Latencies) L2Hit() uint64 { return l.L1 + l.L2 }

// LLCHit returns the total latency of an LLC hit.
func (l Latencies) LLCHit() uint64 { return l.L1 + l.L2 + l.LLC }

// AccessResult describes one access walked through the hierarchy.
type AccessResult struct {
	// Latency is the on-chip portion of the access latency in cycles (the
	// caller adds memory latency when MissedLLC is set).
	Latency uint64
	// MissedLLC is set when the access needs data from main memory.
	MissedLLC bool
	// HitLevel is 1, 2 or 3 for cache hits, 0 for misses to memory.
	HitLevel int
	// Writebacks lists dirty lines pushed out of the LLC to memory by the
	// fills this access performed. The slice aliases the hierarchy's
	// per-core scratch buffer: it is valid until the next
	// Access/Fill/WalkerAccess call on this core's view and must be
	// consumed (drained to memory) before then.
	Writebacks []uint64
}

// Hierarchy glues per-core L1/L2 caches to a (possibly shared) LLC. Fills
// are mostly-inclusive: a fill inserts at every level. LLC evictions
// back-invalidate the upper levels so that a dirty line is written back to
// memory exactly once, which the VBI delayed-allocation mechanism (§5.1)
// relies on to trigger physical allocation.
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	LLC *Cache
	Lat Latencies

	// upper holds every L1/L2 that may hold lines of this LLC (all cores'
	// private caches in a multi-core system) for back-invalidation. It is
	// shared by pointer across the per-core Hierarchy views.
	upper *[]*Cache

	// wb is this core's reusable writeback scratch: every
	// Access/Fill/WalkerAccess call resets it to length zero and appends
	// the dirty LLC victims its fills displace, so the per-reference loop
	// performs no slice allocations in steady state. Each per-core view
	// owns its own scratch (multicore runs interleave the cores
	// step-by-step on one goroutine).
	wb []uint64
}

// wbScratchCap seeds the scratch capacity. A single access can displace at
// most a handful of dirty lines (one per fill performed); the buffer grows
// once at first use if a pathological chain exceeds it and then sticks.
const wbScratchCap = 8

// NewHierarchy builds a single-core hierarchy with its own LLC slice.
func NewHierarchy(l1, l2, llc *Cache, lat Latencies) *Hierarchy {
	return &Hierarchy{L1: l1, L2: l2, LLC: llc, Lat: lat,
		upper: &[]*Cache{l1, l2},
		wb:    make([]uint64, 0, wbScratchCap)}
}

// ShareLLC registers another core's private caches with this hierarchy's
// LLC for back-invalidation, and returns a Hierarchy view for that core
// (with its own writeback scratch).
func (h *Hierarchy) ShareLLC(l1, l2 *Cache) *Hierarchy {
	*h.upper = append(*h.upper, l1, l2)
	return &Hierarchy{L1: l1, L2: l2, LLC: h.LLC, Lat: h.Lat, upper: h.upper,
		wb: make([]uint64, 0, wbScratchCap)}
}

// Access performs a demand load or store of the line through the hierarchy.
// On an LLC miss the caller is responsible for the memory access and must
// then call Fill to install the line.
//
//vbi:hotpath
func (h *Hierarchy) Access(line uint64, write bool) AccessResult {
	line = LineOf(line)
	if h.L1.Lookup(line, write) {
		return AccessResult{Latency: h.Lat.L1Hit(), HitLevel: 1}
	}
	if h.L2.Lookup(line, write) {
		res := AccessResult{Latency: h.Lat.L2Hit(), HitLevel: 2}
		res.Writebacks = h.fillL1(line, write, h.wb[:0])
		h.wb = res.Writebacks[:0]
		return res
	}
	if h.LLC.Lookup(line, write) {
		res := AccessResult{Latency: h.Lat.LLCHit(), HitLevel: 3}
		res.Writebacks = h.fillUpper(line, write, h.wb[:0])
		h.wb = res.Writebacks[:0]
		return res
	}
	return AccessResult{Latency: h.Lat.LLCHit(), MissedLLC: true}
}

// Fill installs a line fetched from memory into all levels and returns any
// dirty LLC writebacks caused by the fills. The returned slice aliases the
// per-core scratch buffer (see AccessResult.Writebacks).
//
//vbi:hotpath
func (h *Hierarchy) Fill(line uint64, write bool) []uint64 {
	line = LineOf(line)
	wbs := h.wb[:0]
	// A write fill records dirty state at the LLC too.
	if v := h.LLC.Insert(line, write); v.Valid {
		wbs = h.evictFromLLC(v, wbs)
	}
	wbs = h.fillUpper(line, write, wbs)
	h.wb = wbs[:0]
	return wbs
}

// WalkerAccess performs a page-table-walker access: it probes L2 and LLC
// (walker accesses do not consult or pollute the L1 data cache) and
// allocates the line on a miss. The boolean result reports whether main
// memory must be accessed. The writebacks slice aliases the per-core
// scratch buffer (see AccessResult.Writebacks).
//
//vbi:hotpath
func (h *Hierarchy) WalkerAccess(line uint64) (latency uint64, missed bool, writebacks []uint64) {
	line = LineOf(line)
	if h.L2.Lookup(line, false) {
		return h.Lat.L2Hit(), false, nil
	}
	if h.LLC.Lookup(line, false) {
		return h.Lat.LLCHit(), false, nil
	}
	// Miss: fill into LLC and L2.
	wbs := h.wb[:0]
	if v := h.LLC.Insert(line, false); v.Valid {
		wbs = h.evictFromLLC(v, wbs)
	}
	if v := h.L2.Insert(line, false); v.Valid && v.Dirty {
		if inner := h.LLC.Insert(v.Line, true); inner.Valid {
			wbs = h.evictFromLLC(inner, wbs)
		}
	}
	h.wb = wbs[:0]
	return h.Lat.LLCHit(), true, wbs
}

// fillL1 inserts into L1 only (after an L2 hit), cascading dirty evictions.
//
//vbi:hotpath
func (h *Hierarchy) fillL1(line uint64, write bool, wbs []uint64) []uint64 {
	if v := h.L1.Insert(line, write); v.Valid && v.Dirty {
		// Dirty L1 victim merges into L2; L2 should contain it
		// (mostly-inclusive), but insert if not. Like spillToLLC, the
		// merge is bookkeeping, not a demand access, so it leaves the
		// L2's hit/miss counters alone.
		if !h.L2.MarkDirty(v.Line) {
			if iv := h.L2.Insert(v.Line, true); iv.Valid && iv.Dirty {
				wbs = h.spillToLLC(iv.Line, wbs)
			}
		}
	}
	return wbs
}

// fillUpper inserts into both private levels (after LLC hit or fill).
//
//vbi:hotpath
func (h *Hierarchy) fillUpper(line uint64, write bool, wbs []uint64) []uint64 {
	if v := h.L2.Insert(line, false); v.Valid && v.Dirty {
		wbs = h.spillToLLC(v.Line, wbs)
	}
	return h.fillL1(line, write, wbs)
}

// spillToLLC merges a dirty private-level victim into the LLC. The present
// case is internal bookkeeping, not a demand access: MarkDirty keeps the
// recency and dirty state exactly as a write hit would but leaves the
// demand hit/miss counters alone.
//
//vbi:hotpath
func (h *Hierarchy) spillToLLC(line uint64, wbs []uint64) []uint64 {
	if h.LLC.MarkDirty(line) {
		return wbs
	}
	if v := h.LLC.Insert(line, true); v.Valid {
		wbs = h.evictFromLLC(v, wbs)
	}
	return wbs
}

// evictFromLLC handles an LLC victim: back-invalidate upper levels (pulling
// in any dirtier copy) and emit a writeback if the line was dirty anywhere.
//
//vbi:hotpath
func (h *Hierarchy) evictFromLLC(v Victim, wbs []uint64) []uint64 {
	dirty := v.Dirty
	for _, c := range *h.upper {
		if present, wasDirty := c.Invalidate(v.Line); present && wasDirty {
			dirty = true
		}
	}
	if dirty {
		//vbi:allow hotalloc append into the per-core scratch buffer: capacity is pre-sized in NewHierarchy/ShareLLC and retained across calls, so steady state never grows it
		wbs = append(wbs, v.Line)
	}
	return wbs
}

// InvalidateIf drops matching lines from every level (lazy VB cleanup,
// §4.2.4). Dirty lines are discarded: disable_vb destroys VB state.
func (h *Hierarchy) InvalidateIf(pred func(line uint64) bool) int {
	n := h.LLC.InvalidateIf(pred)
	for _, c := range *h.upper {
		n += c.InvalidateIf(pred)
	}
	return n
}
