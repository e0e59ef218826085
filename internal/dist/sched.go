package dist

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vbi/internal/harness"
	"vbi/internal/obs"
)

// maxShardAttempts fails a batch whose shard has been refused this many
// times across the whole fleet. By then the shard has outlived worker
// churn and the cause is the work itself (e.g. a job whose simulation
// errors deterministically), which retrying as quarantines lapse would
// never fix.
const maxShardAttempts = 8

// task is one dispatchable shard: a contiguous slice of job indices
// within one batch. Tasks requeue whole on worker failure and carry
// their attempt count, so a shard no worker can serve eventually fails
// its batch instead of bouncing around the fleet forever.
type task struct {
	batchID  string
	indices  []int
	attempts int
}

// fairQueue is the multi-batch shard queue. Batches are held separately
// and pop rotates one shard per batch per turn (round-robin), so a huge
// batch cannot starve a small one: with k active batches, every batch
// receives ~1/k of the fleet regardless of backlog sizes. Requeued
// shards go to the front of their batch so retries are not penalized.
type fairQueue struct {
	mu      sync.Mutex
	order   []string // rotation order: batches in admission order
	cursor  int      // next batch to serve
	pending map[string][]*task
	// tombstones marks dropped (cancelled/failed) batches so their
	// in-flight shards cannot be resurrected by a later requeue.
	tombstones map[string]bool
}

func newFairQueue() *fairQueue {
	return &fairQueue{pending: map[string][]*task{}}
}

// add admits a batch's shards (appending when the batch already has
// pending work).
func (q *fairQueue) add(batchID string, tasks []*task) {
	if len(tasks) == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.pending[batchID]; !ok {
		q.order = append(q.order, batchID)
	}
	q.pending[batchID] = append(q.pending[batchID], tasks...)
}

// pop removes and returns up to max shards, visiting active batches
// round-robin: one shard from each batch with pending work, wrapping
// until max is reached or the queue is empty. The rotation cursor
// persists across calls, so consecutive pulls by different workers
// continue the rotation instead of restarting it (which would bias
// toward the first batch).
func (q *fairQueue) pop(max int) []*task {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*task
	for len(out) < max && len(q.order) > 0 {
		if q.cursor >= len(q.order) {
			q.cursor = 0
		}
		id := q.order[q.cursor]
		shards := q.pending[id]
		if len(shards) == 0 {
			// Batch drained: drop it from the rotation without advancing
			// the cursor (the next batch slides into this slot).
			delete(q.pending, id)
			q.order = append(q.order[:q.cursor], q.order[q.cursor+1:]...)
			continue
		}
		out = append(out, shards[0])
		q.pending[id] = shards[1:]
		q.cursor++
	}
	return out
}

// requeue returns failed shards to the front of their batches' queues.
// Batches dropped meanwhile (cancelled/failed) discard their shards.
func (q *fairQueue) requeue(tasks []*task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, t := range tasks {
		shards, ok := q.pending[t.batchID]
		if !ok {
			if !q.tombstones[t.batchID] {
				q.order = append(q.order, t.batchID)
				q.pending[t.batchID] = []*task{t}
			}
			continue
		}
		q.pending[t.batchID] = append([]*task{t}, shards...)
	}
}

// drop removes a batch from the queue entirely (cancel/failure) and
// remembers it so in-flight shards of the batch are not resurrected by a
// later requeue.
func (q *fairQueue) drop(batchID string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.pending, batchID)
	for i, id := range q.order {
		if id == batchID {
			q.order = append(q.order[:i], q.order[i+1:]...)
			if q.cursor > i {
				q.cursor--
			}
			break
		}
	}
	if q.tombstones == nil {
		q.tombstones = map[string]bool{}
	}
	q.tombstones[batchID] = true
}

// depth returns one batch's pending shard count.
func (q *fairQueue) depth(batchID string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending[batchID])
}

// Batch is one submitted job list: the jobs, a per-job result sink and a
// failure sink. It leaves the scheduler when its last job merges, when
// it fails, or when it is cancelled.
type Batch struct {
	id     string
	jobs   []harness.Job
	result func(idx int, jr JobResult)
	failed func(error)

	// Guarded by Scheduler.mu.
	remaining int // jobs not yet merged
	inFlight  int // jobs dispatched and not yet returned
}

// WorkerStats is one worker's dispatch record in a Scheduler: shards
// sent, shards completed, failed requests, and the round-trip latency of
// its completed requests.
type WorkerStats struct {
	ID         string
	Dispatched int64
	Completed  int64
	Failed     int64
	Seconds    obs.HistogramSnapshot
}

type workerCounts struct {
	dispatched, completed, failed int64
	seconds                       *obs.Histogram
}

// Scheduler dispatches the shards of any number of batches across one
// fleet. Run polls the registry and keeps one serve loop per live
// member; each loop pulls up to the member's weight of shards (fairly
// across batches), sends them as one /run request and merges or
// requeues them. The one-shot Coordinator.Run submits a single batch and
// waits; the sweep daemon submits one batch per sweep for its lifetime.
type Scheduler struct {
	c     *Coordinator
	reg   *Registry
	queue *fairQueue
	wake  chan struct{} // nudged on submit so idle loops pull immediately

	// trace is the scheduler's root trace ID; every dispatched shard gets
	// a numbered child ("<root>/<seq>") sent to the worker in the
	// obs.TraceHeader header, so one grep joins the dispatching and the
	// worker's records for a shard.
	trace string
	seq   atomic.Int64

	mu        sync.Mutex
	batches   map[string]*Batch
	nextID    int64
	remaining int // jobs not yet merged, across batches
	workers   map[string]*workerCounts
	lastErr   error
}

// NewScheduler returns a scheduler over reg that dispatches with c's
// ShardSize, Timeout, Retries, PollInterval, AuthToken, Client, Progress
// and Logger. Start it with Run.
func (c *Coordinator) NewScheduler(reg *Registry) *Scheduler {
	return &Scheduler{
		c:       c,
		reg:     reg,
		queue:   newFairQueue(),
		wake:    make(chan struct{}, 1),
		trace:   obs.NewTraceID(),
		batches: map[string]*Batch{},
		workers: map[string]*workerCounts{},
	}
}

// Submit queues the jobs at indices (positions in jobs) as shards and
// returns the batch. result receives each job's result as its shard
// returns, possibly from several goroutines at once; failed is called at
// most once, when a shard has been refused maxShardAttempts times or a
// fleet that is not Registry.Dynamic has no live member left. Neither is
// called once the batch is cancelled.
func (s *Scheduler) Submit(jobs []harness.Job, indices []int, result func(idx int, jr JobResult), failed func(error)) *Batch {
	b := &Batch{jobs: jobs, result: result, failed: failed, remaining: len(indices)}
	if len(indices) == 0 {
		return b
	}
	size := s.c.shardSize()
	var tasks []*task
	s.mu.Lock()
	s.nextID++
	b.id = strconv.FormatInt(s.nextID, 10)
	s.batches[b.id] = b
	s.remaining += b.remaining
	s.mu.Unlock()
	for lo := 0; lo < len(indices); lo += size {
		tasks = append(tasks, &task{batchID: b.id, indices: indices[lo:min(lo+size, len(indices))]})
	}
	s.queue.add(b.id, tasks)
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return b
}

// Cancel drops a batch: its queued shards are discarded and results of
// its in-flight shards are ignored on arrival. A nil batch is ignored.
func (s *Scheduler) Cancel(b *Batch) {
	if b != nil {
		s.drop(b.id)
	}
}

// drop removes a batch from the scheduler and the queue and reports
// whether it was still pending.
func (s *Scheduler) drop(id string) (*Batch, bool) {
	s.mu.Lock()
	b, ok := s.batches[id]
	if ok {
		delete(s.batches, id)
		s.remaining -= b.remaining
		b.inFlight = 0 // its in-flight results will be discarded
	}
	s.mu.Unlock()
	if ok {
		s.queue.drop(id)
	}
	return b, ok
}

func (s *Scheduler) fail(id string, err error) {
	if b, ok := s.drop(id); ok {
		b.failed(err)
	}
}

// Pending reports a batch's queued shards and its jobs in flight. A nil
// batch has nothing pending.
func (s *Scheduler) Pending(b *Batch) (shards, inFlight int) {
	if b == nil {
		return 0, 0
	}
	s.mu.Lock()
	inFlight = b.inFlight
	s.mu.Unlock()
	return s.queue.depth(b.id), inFlight
}

// Workers returns every worker's dispatch record, sorted by ID.
func (s *Scheduler) Workers() []WorkerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]WorkerStats, len(ids))
	for i, id := range ids {
		w := s.workers[id]
		out[i] = WorkerStats{ID: id, Dispatched: w.dispatched, Completed: w.completed,
			Failed: w.failed, Seconds: w.seconds.Snapshot()}
	}
	return out
}

// worker returns a worker's counters, creating them on first use. The
// caller holds s.mu, which guards the counts; the histogram locks itself.
func (s *Scheduler) worker(id string) *workerCounts {
	w, ok := s.workers[id]
	if !ok {
		w = &workerCounts{seconds: obs.NewHistogram(obs.LatencyBuckets()...)}
		s.workers[id] = w
	}
	return w
}

// memberLoop tracks one member's running serve goroutine.
type memberLoop struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// Run polls fleet membership every PollInterval and keeps one serve loop
// per live member until ctx ends, then returns once every loop has
// exited. A joined member gets a loop immediately; an evicted or
// quarantined member has its loop cancelled (its in-flight shards
// requeue). When no member is live, a fleet that is not
// Registry.Dynamic fails every pending batch with the last worker error,
// and a dynamic fleet waits for the next join.
func (s *Scheduler) Run(ctx context.Context) {
	active := map[string]*memberLoop{}
	ticker := time.NewTicker(s.c.pollInterval())
	defer ticker.Stop()
	waiting := false
	for {
		// Reap exited loops so a rejoined member can be re-served.
		//vbi:allow maporder per-member reap; each entry is tested and deleted independently
		for id, l := range active {
			select {
			case <-l.done:
				delete(active, id)
			default:
			}
		}
		live := s.reg.Live()
		alive := map[string]bool{}
		for _, m := range live {
			alive[m.ID] = true
		}
		// A dead worker's loop must not sit on the queue.
		//vbi:allow maporder per-member cancel; entries are independent and cancel is idempotent
		for id, l := range active {
			if !alive[id] {
				l.cancel()
			}
		}
		for _, m := range live {
			if _, ok := active[m.ID]; ok {
				continue
			}
			mctx, mcancel := context.WithCancel(ctx)
			l := &memberLoop{cancel: mcancel, done: make(chan struct{})}
			active[m.ID] = l
			go func(m Member) {
				defer close(l.done)
				defer mcancel()
				s.serve(mctx, m)
			}(m)
		}
		s.mu.Lock()
		remaining, lastErr := s.remaining, s.lastErr
		s.mu.Unlock()
		switch {
		case len(active) > 0 || remaining == 0:
			waiting = false
		case !s.reg.Dynamic():
			if lastErr == nil {
				lastErr = fmt.Errorf("dist: no live workers")
			}
			s.failAll(fmt.Errorf("dist: every worker failed: %w", lastErr))
		case !waiting:
			waiting = true
			s.c.logf("dist: no live workers; waiting for joins (%d jobs queued)", remaining)
		}
		select {
		case <-ctx.Done():
			//vbi:allow maporder cancel is idempotent per loop; order immaterial, results merge positionally
			for _, l := range active {
				l.cancel()
			}
			//vbi:allow maporder joins every loop; completion set, not order, is what matters
			for _, l := range active {
				<-l.done
			}
			return
		case <-ticker.C:
		}
	}
}

// failAll fails every pending batch with err.
func (s *Scheduler) failAll(err error) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.batches))
	for id := range s.batches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s.mu.Unlock()
	for _, id := range ids {
		s.fail(id, err)
	}
}

// serve is one member's dispatch loop: pull up to weight shards (fairly
// across batches), send them as one request, merge or requeue. It exits
// when the member's context is cancelled (eviction, or the scheduler
// stopping) or when the member is dropped: after Retries consecutive
// failures, or at once on a version mismatch (412), which a stale
// worker binary can never recover from.
func (s *Scheduler) serve(ctx context.Context, m Member) {
	consecutive := 0
	for ctx.Err() == nil {
		// Re-read the weight each round: a member that re-registered with
		// a different pool width pulls at its new width immediately.
		tasks, jobs := s.dispatch(m.ID, s.queue.pop(s.reg.WeightOf(m.ID, m.Weight)))
		if len(tasks) == 0 {
			select {
			case <-ctx.Done():
				return
			case <-s.wake:
			case <-time.After(25 * time.Millisecond):
			}
			continue
		}
		trace := obs.ChildID(s.trace, s.seq.Add(1))
		log := s.c.log().With("trace", trace, "worker", m.ID)
		log.Info("shard dispatch", "jobs", len(jobs), "shards", len(tasks))
		start := time.Now()
		resp, fatal, err := ExecuteShard(ctx, s.c.client(), m, s.c.AuthToken, s.c.timeout(), jobs, trace)
		if fatal == nil && err == nil {
			consecutive = 0
			remaining := s.merge(m.ID, tasks, resp.Results, time.Since(start))
			s.c.logf("dist: %s completed %d jobs (%d remaining)", m.ID, len(jobs), remaining)
			log.Info("shard complete", "jobs", len(jobs), "seconds", time.Since(start).Seconds(), "remaining", remaining)
			continue
		}
		s.returned(tasks)
		if fatal != nil {
			s.failure(m.ID, fatal)
			s.queue.requeue(tasks)
			s.c.logf("dist: dropping worker %s permanently: %v", m.ID, fatal)
			log.Error("worker dropped", "err", fatal)
			s.reg.Remove(m.ID)
			return
		}
		if ctx.Err() != nil {
			// A cancelled member (evicted mid-request, or the scheduler
			// stopping) is not a worker failure: requeue and leave quietly.
			s.queue.requeue(tasks)
			return
		}
		s.failure(m.ID, err)
		// Count the attempt while this loop still owns the tasks: once
		// requeued, another member's loop may pop them.
		for _, t := range tasks {
			if t.attempts++; t.attempts >= maxShardAttempts {
				s.fail(t.batchID, fmt.Errorf("shard failed %d times, last: %w", t.attempts, err))
			}
		}
		s.queue.requeue(tasks)
		consecutive++
		if consecutive >= s.c.retries() {
			s.c.logf("dist: dropping worker %s after %d consecutive failures: %v", m.ID, consecutive, err)
			log.Warn("worker dropped", "failures", consecutive, "err", err)
			s.reg.Remove(m.ID)
			return
		}
		s.c.logf("dist: %s failed (attempt %d, %d jobs requeued): %v", m.ID, consecutive, len(jobs), err)
		log.Warn("shard requeued", "attempt", consecutive, "jobs", len(jobs), "err", err)
		if sleepCtx(ctx, time.Duration(consecutive)*100*time.Millisecond) != nil {
			return
		}
	}
}

// dispatch resolves popped tasks to the job list one request carries,
// skipping tasks whose batch left the scheduler after the pop, and
// counts them in flight and dispatched to worker.
func (s *Scheduler) dispatch(worker string, tasks []*task) ([]*task, []harness.Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var live []*task
	var jobs []harness.Job
	for _, t := range tasks {
		b, ok := s.batches[t.batchID]
		if !ok {
			continue
		}
		for _, idx := range t.indices {
			jobs = append(jobs, b.jobs[idx])
		}
		b.inFlight += len(t.indices)
		live = append(live, t)
	}
	if len(live) > 0 {
		s.worker(worker).dispatched += int64(len(live))
	}
	return live, jobs
}

// returned takes failed tasks back out of flight.
func (s *Scheduler) returned(tasks []*task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range tasks {
		if b, ok := s.batches[t.batchID]; ok {
			b.inFlight -= len(t.indices)
		}
	}
}

// failure counts a failed request against worker and keeps its error for
// the dry-fleet failure.
func (s *Scheduler) failure(worker string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.worker(worker).failed++
	s.lastErr = fmt.Errorf("last error from %s: %w", worker, err)
}

// merge delivers a completed request's positional results to their
// batches' sinks, retiring each batch whose last job this was. Results
// for batches that left meanwhile are discarded. It returns the jobs
// still unmerged across batches.
func (s *Scheduler) merge(worker string, tasks []*task, results []JobResult, elapsed time.Duration) int {
	owners := make([]*Batch, len(tasks))
	s.mu.Lock()
	for i, t := range tasks {
		b, ok := s.batches[t.batchID]
		if !ok {
			continue
		}
		owners[i] = b
		b.inFlight -= len(t.indices)
		b.remaining -= len(t.indices)
		s.remaining -= len(t.indices)
		if b.remaining == 0 {
			delete(s.batches, b.id)
		}
	}
	w := s.worker(worker)
	w.completed += int64(len(tasks))
	remaining := s.remaining
	s.mu.Unlock()
	w.seconds.Observe(elapsed.Seconds())
	k := 0
	for i, t := range tasks {
		for _, idx := range t.indices {
			if owners[i] != nil {
				owners[i].result(idx, results[k])
			}
			k++
		}
	}
	return remaining
}
