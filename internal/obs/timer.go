package obs

import "time"

// PhaseCounts is the cross-system per-phase event breakdown carried in
// JobTiming: how a job's simulated work distributes over the memory
// hierarchy's phases, built from the counters every system already
// keeps (system.RunResult.Phases maps its Extra counters onto these
// fields). Counts are events, not cycles — they attribute *where* the
// simulation spent its effort, which is what the wall clock is being
// broken down against.
//
//vbi:wire
type PhaseCounts struct {
	// TLB counts first-level translation-cache misses (TLB, MTL TLB,
	// Enigma CTC).
	TLB uint64 `json:"tlb"`
	// PWC counts translation-structure lookups past the TLB: page-table
	// walks started and VBI CVT misses.
	PWC uint64 `json:"pwc"`
	// Walk counts memory accesses issued by table walks (conventional
	// walkers and the MTL's).
	Walk uint64 `json:"walk"`
	// Cache counts references entering the cache hierarchy (MemRefs).
	Cache uint64 `json:"cache"`
	// DRAM counts main-memory accesses (reads+writes, translation
	// traffic included).
	DRAM uint64 `json:"dram"`
}

// Add returns the field-wise sum; multi-core jobs and sweep aggregates
// fold per-run counts with it.
func (p PhaseCounts) Add(q PhaseCounts) PhaseCounts {
	return PhaseCounts{
		TLB:   p.TLB + q.TLB,
		PWC:   p.PWC + q.PWC,
		Walk:  p.Walk + q.Walk,
		Cache: p.Cache + q.Cache,
		DRAM:  p.DRAM + q.DRAM,
	}
}

// IsZero reports whether no phase recorded any event.
func (p PhaseCounts) IsZero() bool {
	return p == PhaseCounts{}
}

// String renders the fixed-order human form used in progress lines:
// "tlb=1 pwc=2 walk=3 cache=4 dram=5".
func (p PhaseCounts) String() string {
	return "tlb=" + utoa(p.TLB) + " pwc=" + utoa(p.PWC) + " walk=" + utoa(p.Walk) +
		" cache=" + utoa(p.Cache) + " dram=" + utoa(p.DRAM)
}

// utoa is strconv.FormatUint without the import weight in the hot
// package surface; PhaseCounts.String is cold, clarity wins.
func utoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// JobTiming is one job's measurement record: wall time on the executing
// pool, time spent queued behind the batch, whether the result came
// from a cache, and the per-phase event breakdown. It rides the dist
// wire in JobResult.Timing — beside the results, never inside them — so
// the coordinator sees where remote time went while cached result bytes
// stay byte-identical to untimed runs.
//
//vbi:wire
type JobTiming struct {
	// WallNanos is the job's simulation wall clock on the pool that
	// executed it (zero for cache hits).
	WallNanos int64 `json:"wall_nanos"`
	// QueueNanos is how long the job waited between batch start and its
	// own start on the executing pool.
	QueueNanos int64 `json:"queue_nanos,omitempty"`
	// Cached reports a result served from a result cache (local or the
	// worker's) rather than simulated.
	Cached bool `json:"cached,omitempty"`
	// Phases is the per-phase event breakdown summed across the job's
	// cores (cache hits report it too — the counters are part of the
	// cached result).
	Phases PhaseCounts `json:"phases"`
}

// Wall returns the wall clock as a duration.
func (t *JobTiming) Wall() time.Duration { return time.Duration(t.WallNanos) }

// Queue returns the queue wait as a duration.
func (t *JobTiming) Queue() time.Duration { return time.Duration(t.QueueNanos) }

// Timer measures one job without allocating: a value type with concrete
// methods, so wrapping a run in one is free on the runner's dispatch
// path. StartTimer notes the start, Stop returns wall time and queue
// wait. The methods are marked //vbi:hotpath so vbilint's hotalloc
// analyzer machine-checks the allocation-free claim.
type Timer struct {
	queuedAt  time.Time
	startedAt time.Time
}

// StartTimer starts timing now. queuedAt, when non-zero, is the moment
// the job entered its batch's queue (queue wait = start − queuedAt); a
// zero queuedAt records zero wait.
//
//vbi:hotpath
func StartTimer(queuedAt time.Time) Timer {
	now := time.Now()
	if queuedAt.IsZero() {
		queuedAt = now
	}
	return Timer{queuedAt: queuedAt, startedAt: now}
}

// Stop returns the wall time since StartTimer and the queue wait before
// it. It may be called multiple times; each call measures from the same
// start.
//
//vbi:hotpath
func (t Timer) Stop() (wall, queue time.Duration) {
	return time.Since(t.startedAt), t.startedAt.Sub(t.queuedAt)
}
