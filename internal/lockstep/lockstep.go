// Package lockstep provides the synchronization seam that lets one
// multi-core simulation execute its cores on concurrent goroutines while
// producing results byte-identical to the serial smallest-now() interleave
// (system.Multicore.Run).
//
// The idea: a core's step is private (its own L1/L2, TLBs, page tables,
// trace generator) until it touches shared state — the LLC, DRAM bank
// timing, the OS allocator, the MTL. Private work from different cores
// commutes, so cores may free-run through it concurrently. Shared state
// does not commute: the serial scheduler executes whole steps in ascending
// (now, coreIdx) order, so the parallel run must apply all shared-state
// mutations in exactly that order.
//
// Each core publishes the key of the step it is currently executing
// (key = now<<4 | coreIdx, matching the serial tie-break: the scan in
// Multicore.Run uses a strict <, so equal clocks resolve to the lowest
// index). A core reaching a shared-state chokepoint spins until every
// other live core has published a key strictly greater than its own; at
// that instant it is the global minimum, every earlier shared section has
// completed, and no later one can start (two cores cannot both see all
// others above them). Keys are strictly increasing per core (cpu.Core.now
// advances by at least one cycle per step), so the grant order equals the
// serial step order and the shared structures observe the identical
// operation sequence — same LLC recency order, same DRAM bank state, same
// allocator order, byte for byte.
//
// The one way private state couples across cores is LLC back-invalidation:
// the turn holder evicting an LLC victim invalidates the line in every
// other core's L1/L2 and reads its dirty bit. A free-running core may
// have raced past the invalidation point. Each core therefore keeps a
// ring log of its private-cache activity (hits and structural
// insert/evict events, keyed by step), guarded by a per-core spinlock the
// invalidator also takes. If the victim core has touched the invalidated
// line — or, when the line is present, restructured its set — at a key
// after the invalidation's, the interleaving diverged from serial: the
// group aborts and the caller re-runs the job serially on a fresh
// machine, so the final results are byte-identical on either path. In
// the simulated workloads cores touch disjoint physical/VBI lines, so
// aborts are a safety net, not a steady-state cost.
package lockstep

import (
	"math"
	"runtime"
	"sync/atomic"
)

// IdxBits is the core-index width folded into the low bits of a key;
// groups are capped at 1<<IdxBits cores (the simulated bundles are 4).
const IdxBits = 4

// MaxCores is the largest group size.
const MaxCores = 1 << IdxBits

// ringBits sizes the per-core activity log. A core logs a handful of
// entries per step, and the lead bound keeps cores within a few thousand
// steps of the global minimum, so 1<<16 entries cannot wrap within a
// conflict scan's window in practice; a wrapped scan aborts conservatively.
const ringBits = 16

const ringMask = (1 << ringBits) - 1

// leadCycles bounds how far (in simulated cycles) a core may run ahead of
// the slowest other core. It only bounds ring growth and memory-order
// skew; correctness never depends on it.
const leadCycles = 1 << 13

// Entry is one logged private-cache event. Line addresses are 64-byte
// aligned, so bit 0 carries the structural flag: structural entries
// (insert/evict) can change which lines a set holds; plain touches only
// refresh recency and dirty state of a present line.
type Entry struct {
	Key  uint64
	Line uint64
}

// Structural marks an Entry.Line as an insert/evict rather than a touch.
const Structural = 1

// Group coordinates one machine's cores for a parallel run.
type Group struct {
	handles []*Handle
	aborted atomic.Bool
}

// NewGroup builds a group of n cores. n must be at most MaxCores.
func NewGroup(n int) *Group {
	if n < 1 || n > MaxCores {
		panic("lockstep: bad group size")
	}
	g := &Group{}
	for i := 0; i < n; i++ {
		g.handles = append(g.handles, &Handle{
			g:    g,
			idx:  i,
			ring: make([]Entry, 1<<ringBits),
		})
	}
	return g
}

// Handle returns core i's handle.
func (g *Group) Handle(i int) *Handle { return g.handles[i] }

// Abort marks the run diverged; goroutines unwind at their next step
// boundary and the caller re-runs serially.
func (g *Group) Abort() { g.aborted.Store(true) }

// Aborted reports whether the run diverged.
func (g *Group) Aborted() bool { return g.aborted.Load() }

// Handle is one core's view of the group. BeginStep/Enter/EndStep/Finish
// are called only from the owning goroutine; Lock/Unlock/Ring/Total are
// the peer-access surface back-invalidation uses. All methods are safe on
// a nil receiver (serial machines carry no handle).
type Handle struct {
	g   *Group
	idx int

	// key is the published key of the step being executed (atomic:
	// peers spin on it).
	key atomic.Uint64

	// cur/holding are owner-goroutine state: the current step key and
	// whether this core already holds the shared turn for this step.
	cur     uint64
	holding bool

	// lock guards ring/total against the back-invalidation scan.
	lock spinLock
	// ring is the private-cache activity log; total counts entries ever
	// appended (ring[i%len] holds append i).
	ring  []Entry
	total int
}

// Idx returns the core index.
func (h *Handle) Idx() int { return h.idx }

// Key builds the interleave key for a step starting at cycle now.
func Key(now uint64, idx int) uint64 { return now<<IdxBits | uint64(idx) }

// Publish announces the key of the core's next step. The driver calls it
// the moment the previous step completes (not when the next begins): a
// worker goroutine interleaving several cores must keep every idle core's
// key current, or a stale small key would block the group. Publishing key
// k is a promise that no shared operation with a smaller key will ever
// come from this core — true once the step at the previous key is done.
// Returns false when the group has aborted and the goroutine should
// unwind.
//
//vbi:hotpath
func (h *Handle) Publish(now uint64) bool {
	h.cur = Key(now, h.idx)
	h.key.Store(h.cur)
	return !h.g.Aborted()
}

// WaitLead applies the lead bound before a step executes: the core waits
// until it is within leadCycles of the slowest other core. The driver
// calls it only for the core it is about to step, which is the minimum
// over the cores that goroutine owns — any core behind this one belongs
// to another goroutine and makes progress, so the wait cannot self-
// deadlock. The bound only limits ring growth and skew; correctness never
// depends on it. Returns false when the group has aborted.
//
//vbi:hotpath
func (h *Handle) WaitLead() bool {
	lead := uint64(leadCycles) << IdxBits
	for h.cur > lead {
		if h.minOthers() >= h.cur-lead {
			break
		}
		if h.g.Aborted() {
			return false
		}
		runtime.Gosched()
	}
	return !h.g.Aborted()
}

// minOthers returns the smallest key published by any other core.
//
//vbi:hotpath
func (h *Handle) minOthers() uint64 {
	min := uint64(math.MaxUint64)
	for _, o := range h.g.handles {
		if o == h {
			continue
		}
		if k := o.key.Load(); k < min {
			min = k
		}
	}
	return min
}

// Enter acquires the shared turn for the current step: it blocks until
// every other live core has published a key strictly greater than this
// step's, i.e. until this step is the global minimum of the serial
// interleave. It is idempotent within a step and a no-op on nil handles
// (serial runs). After an abort, exiting cores publish MaxUint64, so a
// blocked Enter always drains — and proceeds alone, keeping the shared
// structures race-free even on the discard path.
//
//vbi:hotpath
func (h *Handle) Enter() {
	if h == nil || h.holding {
		return
	}
	for h.minOthers() <= h.cur {
		runtime.Gosched()
	}
	h.holding = true
}

// Holding reports whether the core holds the shared turn (owner
// goroutine only). Nil-safe.
//
//vbi:hotpath
func (h *Handle) Holding() bool { return h != nil && h.holding }

// EndStep releases the shared turn. The published key keeps blocking
// peers until the next BeginStep raises it, which is exactly the serial
// contract: the next step's shared work may still be this core's.
//
//vbi:hotpath
func (h *Handle) EndStep() { h.holding = false }

// Finish retires the core from the interleave: its published key becomes
// MaxUint64 so no peer ever waits on it again.
func (h *Handle) Finish() { h.key.Store(math.MaxUint64) }

// Cur returns the key of the step being executed (owner goroutine only).
//
//vbi:hotpath
func (h *Handle) Cur() uint64 { return h.cur }

// Abort marks the group diverged. Nil-safe.
func (h *Handle) Abort() {
	if h != nil {
		h.g.Abort()
	}
}

// Aborted reports group divergence. Nil-safe.
//
//vbi:hotpath
func (h *Handle) Aborted() bool { return h != nil && h.g.Aborted() }

// Lock takes the core's private-cache lock. The owner holds it across
// each private L1/L2 operation plus its log append; the turn holder
// takes it to back-invalidate. Neither side ever blocks on the turn
// while holding it, so the two locks cannot deadlock.
//
//vbi:hotpath
func (h *Handle) Lock() { h.lock.lock() }

// Unlock releases the private-cache lock.
//
//vbi:hotpath
func (h *Handle) Unlock() { h.lock.unlock() }

// Log appends a private-cache event for the current step. Callers hold
// the lock.
//
//vbi:hotpath
func (h *Handle) Log(line uint64, structural bool) {
	e := Entry{Key: h.cur, Line: line}
	if structural {
		e.Line |= Structural
	}
	h.ring[h.total&ringMask] = e
	h.total++
}

// Ring exposes the log buffer and Total the number of entries ever
// appended; entry i (for total-len(ring) <= i < total) lives at
// ring[i&RingMask()]. Callers hold the lock.
func (h *Handle) Ring() []Entry { return h.ring }

// Total returns the number of entries ever appended. Callers hold the
// lock.
func (h *Handle) Total() int { return h.total }

// RingMask returns the index mask for Ring.
func RingMask() int { return ringMask }

// spinLock is a tiny test-and-set lock. Critical sections are a few
// loads/stores, contention is rare (one invalidator vs one owner), and
// Gosched keeps single-CPU hosts live.
type spinLock struct{ v atomic.Uint32 }

//vbi:hotpath
func (s *spinLock) lock() {
	for !s.v.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

//vbi:hotpath
func (s *spinLock) unlock() { s.v.Store(0) }
