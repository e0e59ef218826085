package cache

import "vbi/internal/lockstep"

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
	upper *upperSet

	// wb is this core's reusable writeback scratch: every
	// Access/Fill/WalkerAccess call resets it to length zero and appends
	// the dirty LLC victims its fills displace, so the per-reference loop
	// performs no slice allocations in steady state. Each per-core view
	// owns its own scratch (views are single-threaded; multicore runs
	// interleave step-by-step — or, under lockstep sharding, concurrently
	// with shared-structure access serialized by the turnstile).
	wb []uint64

	// ls, when non-nil, is this core's lockstep handle for sharded
	// multi-core execution: LLC/shared paths acquire the serial-order
	// turn through it, and private L1/L2 operations performed without the
	// turn are locked and logged for back-invalidation conflict checks.
	ls *lockstep.Handle
}

type upperSet struct {
	caches []*Cache
	// owners aligns lockstep handles with caches (nil entries when the
	// machine runs serially or the cache's core has no handle).
	owners []*lockstep.Handle
}

// wbScratchCap seeds the scratch capacity. A single access can displace at
// most a handful of dirty lines (one per fill performed); the buffer grows
// once at first use if a pathological chain exceeds it and then sticks.
const wbScratchCap = 8

// NewHierarchy builds a single-core hierarchy with its own LLC slice.
func NewHierarchy(l1, l2, llc *Cache, lat Latencies) *Hierarchy {
	return &Hierarchy{L1: l1, L2: l2, LLC: llc, Lat: lat,
		upper: &upperSet{caches: []*Cache{l1, l2}, owners: make([]*lockstep.Handle, 2)},
		wb:    make([]uint64, 0, wbScratchCap)}
}

// ShareLLC registers another core's private caches with this hierarchy's
// LLC for back-invalidation, and returns a Hierarchy view for that core
// (with its own writeback scratch).
func (h *Hierarchy) ShareLLC(l1, l2 *Cache) *Hierarchy {
	h.upper.caches = append(h.upper.caches, l1, l2)
	h.upper.owners = append(h.upper.owners, nil, nil)
	return &Hierarchy{L1: l1, L2: l2, LLC: h.LLC, Lat: h.Lat, upper: h.upper,
		wb: make([]uint64, 0, wbScratchCap)}
}

// SetLockstep attaches a lockstep handle to this core's view for a sharded
// run (nil detaches). The handle is registered against the view's own
// L1/L2 in the shared upper set so the turn holder's back-invalidations
// know which peer lock and log to consult.
func (h *Hierarchy) SetLockstep(ls *lockstep.Handle) {
	h.ls = ls
	for i, c := range h.upper.caches {
		if c == h.L1 || c == h.L2 {
			h.upper.owners[i] = ls
		}
	}
}

// Access performs a demand load or store of the line through the hierarchy.
// On an LLC miss the caller is responsible for the memory access and must
// then call Fill to install the line.
//
//vbi:hotpath
func (h *Hierarchy) Access(line uint64, write bool) AccessResult {
	line = LineOf(line)
	if h.privLookup(h.L1, line, write) {
		return AccessResult{Latency: h.Lat.L1Hit(), HitLevel: 1}
	}
	if h.privLookup(h.L2, line, write) {
		res := AccessResult{Latency: h.Lat.L2Hit(), HitLevel: 2}
		res.Writebacks = h.fillL1(line, write, h.wb[:0])
		h.wb = res.Writebacks[:0]
		return res
	}
	// From here the access touches the shared LLC: take the serial-order
	// turn (held until the driver ends the step).
	h.ls.Enter()
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
	h.ls.Enter()
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
	if h.privLookup(h.L2, line, false) {
		return h.Lat.L2Hit(), false, nil
	}
	h.ls.Enter()
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
	if v := h.privInsert(h.L1, line, write); v.Valid && v.Dirty {
		// Dirty L1 victim merges into L2; L2 should contain it
		// (mostly-inclusive), but insert if not.
		if !h.privLookup(h.L2, v.Line, true) {
			if iv := h.privInsert(h.L2, v.Line, true); iv.Valid && iv.Dirty {
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
	if v := h.privInsert(h.L2, line, false); v.Valid && v.Dirty {
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
	h.ls.Enter()
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
	for i, c := range h.upper.caches {
		owner := h.upper.owners[i]
		if owner == nil || owner == h.ls {
			if present, wasDirty := c.Invalidate(v.Line); present && wasDirty {
				dirty = true
			}
			continue
		}
		if h.invalidatePeer(c, owner, v.Line) {
			dirty = true
		}
	}
	if dirty {
		//vbi:allow hotalloc append into the per-core scratch buffer: capacity is pre-sized in NewHierarchy/ShareLLC and retained across calls, so steady state never grows it
		wbs = append(wbs, v.Line)
	}
	return wbs
}

// invalidatePeer back-invalidates a line in another core's private cache
// during a sharded run. The caller holds the turn, so this core's step is
// the global minimum of the interleave — but the peer may have free-run
// past this point in its private state. The peer's activity log decides
// whether the race changed anything the serial run would have seen:
//
//   - the peer touched exactly this line at a key after ours: its hit,
//     recency or dirty bit diverged from serial (serial would have
//     invalidated first) — conflict;
//   - the line is still present and the peer did a structural
//     insert/evict in the same set at a key after ours: serial's
//     invalidation would have freed a way before that insert picked its
//     victim — conflict;
//   - the log wrapped past our key's window: can't prove innocence —
//     conflict.
//
// Absent line with no later touch is the common case (bundle members
// reference disjoint lines) and is race-free: serial's invalidation would
// have been a no-op on everything the peer did. On conflict the group
// aborts and the caller re-runs serially on a fresh machine.
//
//vbi:hotpath
func (h *Hierarchy) invalidatePeer(c *Cache, owner *lockstep.Handle, line uint64) bool {
	since := h.ls.Cur()
	owner.Lock()
	present, wasDirty := c.Invalidate(line)
	ring, total, mask := owner.Ring(), owner.Total(), lockstep.RingMask()
	conflict := false
	bounded := false
	for j := total - 1; j >= 0 && total-j <= len(ring); j-- {
		e := ring[j&mask]
		if e.Key <= since {
			bounded = true
			break
		}
		l := e.Line &^ uint64(lockstep.Structural)
		if l == line || (present && e.Line&lockstep.Structural != 0 && c.sameSet(l, line)) {
			conflict = true
			break
		}
	}
	if !conflict && !bounded && total >= len(ring) {
		conflict = true // log wrapped past our window
	}
	owner.Unlock()
	if conflict {
		h.ls.Abort()
	}
	return present && wasDirty
}

// privLookup performs a private L1/L2 lookup. Without the turn it runs
// under the core's lock and logs hits so a later back-invalidation of the
// line can detect the divergence; with the turn (or serially) it is
// lock-free — only the unique turn holder invalidates peers.
//
//vbi:hotpath
func (h *Hierarchy) privLookup(c *Cache, line uint64, write bool) bool {
	ls := h.ls
	if ls == nil || ls.Holding() {
		return c.Lookup(line, write)
	}
	ls.Lock()
	ok := c.Lookup(line, write)
	if ok {
		ls.Log(line, false)
	}
	ls.Unlock()
	return ok
}

// privInsert performs a private L1/L2 insert, logging the inserted line
// and any victim as structural events (they change set membership, which
// back-invalidation victim selection depends on).
//
//vbi:hotpath
func (h *Hierarchy) privInsert(c *Cache, line uint64, dirty bool) Victim {
	ls := h.ls
	if ls == nil || ls.Holding() {
		return c.Insert(line, dirty)
	}
	ls.Lock()
	v := c.Insert(line, dirty)
	ls.Log(line, true)
	if v.Valid {
		ls.Log(v.Line, true)
	}
	ls.Unlock()
	return v
}

// InvalidateIf drops matching lines from every level (lazy VB cleanup,
// §4.2.4). Dirty lines are discarded: disable_vb destroys VB state.
func (h *Hierarchy) InvalidateIf(pred func(line uint64) bool) int {
	n := h.LLC.InvalidateIf(pred)
	for _, c := range h.upper.caches {
		n += c.InvalidateIf(pred)
	}
	return n
}
