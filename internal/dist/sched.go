package dist

import (
	"context"
	"fmt"
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

// task is one dispatchable shard: a contiguous slice of the batch's job
// indices. Tasks requeue whole on worker failure and carry their attempt
// count, so a shard no worker can serve eventually fails the batch
// instead of bouncing around the fleet forever.
type task struct {
	indices  []int
	attempts int
}

// shardQueue holds a batch's undispatched shards. Requeued shards go to
// the front, so a retry does not wait behind untried work.
type shardQueue struct {
	mu    sync.Mutex
	tasks []*task
}

// pop removes and returns up to max shards from the front.
func (q *shardQueue) pop(max int) []*task {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := min(max, len(q.tasks))
	out := append([]*task(nil), q.tasks[:n]...)
	q.tasks = q.tasks[n:]
	return out
}

// requeue returns failed shards to the front of the queue.
func (q *shardQueue) requeue(tasks []*task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tasks = append(append([]*task(nil), tasks...), q.tasks...)
}

// scheduler dispatches one batch across one fleet; Coordinator.Run builds
// one per run. It polls the registry and keeps one serve loop per live
// member; each loop pulls up to the member's weight of shards, sends
// them as one /run request and merges or requeues them.
type scheduler struct {
	c     *Coordinator
	reg   *Registry
	jobs  []harness.Job
	queue shardQueue
	// result receives each job's result as its shard returns, possibly
	// from several serve loops at once. An error fails the batch.
	result func(idx int, jr JobResult) error
	// done receives the batch's outcome: nil once every job has merged,
	// or the error that failed it. The first send wins.
	done chan error

	// trace is the run's root trace ID; every dispatched shard gets a
	// numbered child ("<root>/<seq>") sent to the worker in the
	// obs.TraceHeader header, so one grep joins the dispatching and the
	// worker's records for a shard.
	trace string
	seq   atomic.Int64

	mu        sync.Mutex
	remaining int // jobs not yet merged
	lastErr   error
}

// newScheduler queues the jobs at indices (positions in jobs) as shards
// of c's ShardSize for dispatch across reg.
func newScheduler(c *Coordinator, reg *Registry, jobs []harness.Job, indices []int,
	result func(idx int, jr JobResult) error) *scheduler {
	s := &scheduler{c: c, reg: reg, jobs: jobs, result: result, done: make(chan error, 1),
		trace: obs.NewTraceID(), remaining: len(indices)}
	size := c.shardSize()
	for lo := 0; lo < len(indices); lo += size {
		s.queue.tasks = append(s.queue.tasks, &task{indices: indices[lo:min(lo+size, len(indices))]})
	}
	return s
}

// finish reports the batch's outcome; later calls are ignored.
func (s *scheduler) finish(err error) {
	select {
	case s.done <- err:
	default:
	}
}

// dispatch runs the batch until every job has merged, the batch fails or
// ctx ends. It returns once every serve loop has exited, so no result
// sink runs after it returns.
func (s *scheduler) dispatch(ctx context.Context) error {
	runCtx, cancel := context.WithCancel(ctx)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		s.run(runCtx)
	}()
	defer func() {
		cancel()
		<-stopped
	}()
	select {
	case err := <-s.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// memberLoop tracks one member's running serve goroutine.
type memberLoop struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// run polls fleet membership every PollInterval and keeps one serve loop
// per live member until ctx ends, then returns once every loop has
// exited. A joined member gets a loop immediately; an evicted or
// quarantined member has its loop cancelled (its in-flight shards
// requeue). When no member is live, a fleet that is not
// Registry.Dynamic fails the batch with the last worker error, and a
// dynamic fleet waits for the next join.
func (s *scheduler) run(ctx context.Context) {
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
			s.finish(fmt.Errorf("dist: every worker failed: %w", lastErr))
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

// serve is one member's dispatch loop: pull up to weight shards, send
// them as one request, merge or requeue. It exits when the member's
// context is cancelled (eviction, or the run ending) or when the member
// is dropped: after Retries consecutive failures, or at once on a
// version mismatch (412), which a stale worker binary can never recover
// from.
func (s *scheduler) serve(ctx context.Context, m Member) {
	consecutive := 0
	for ctx.Err() == nil {
		// Re-read the weight each round: a member that re-registered with
		// a different pool width pulls at its new width immediately.
		tasks := s.queue.pop(s.reg.WeightOf(m.ID, m.Weight))
		if len(tasks) == 0 {
			if sleepCtx(ctx, 25*time.Millisecond) != nil {
				return
			}
			continue
		}
		var jobs []harness.Job
		for _, t := range tasks {
			for _, idx := range t.indices {
				jobs = append(jobs, s.jobs[idx])
			}
		}
		trace := obs.ChildID(s.trace, s.seq.Add(1))
		log := s.c.log().With("trace", trace, "worker", m.ID)
		log.Info("shard dispatch", "jobs", len(jobs), "shards", len(tasks))
		start := time.Now()
		resp, fatal, err := ExecuteShard(ctx, s.c.client(), m, s.c.AuthToken, s.c.timeout(), jobs, trace)
		if fatal == nil && err == nil {
			consecutive = 0
			remaining := s.merge(tasks, resp.Results)
			s.c.logf("dist: %s completed %d jobs (%d remaining)", m.ID, len(jobs), remaining)
			log.Info("shard complete", "jobs", len(jobs), "seconds", time.Since(start).Seconds(), "remaining", remaining)
			continue
		}
		if fatal != nil {
			s.failure(m.ID, fatal)
			s.queue.requeue(tasks)
			s.c.logf("dist: dropping worker %s permanently: %v", m.ID, fatal)
			log.Error("worker dropped", "err", fatal)
			s.reg.Remove(m.ID)
			return
		}
		if ctx.Err() != nil {
			// A cancelled member (evicted mid-request, or the run ending)
			// is not a worker failure: requeue and leave quietly.
			s.queue.requeue(tasks)
			return
		}
		s.failure(m.ID, err)
		// Count the attempt while this loop still owns the tasks: once
		// requeued, another member's loop may pop them.
		for _, t := range tasks {
			if t.attempts++; t.attempts >= maxShardAttempts {
				s.finish(fmt.Errorf("shard failed %d times, last: %w", t.attempts, err))
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

// failure keeps a failed request's error for the dry-fleet failure.
func (s *scheduler) failure(worker string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastErr = fmt.Errorf("last error from %s: %w", worker, err)
}

// merge delivers a completed request's positional results to the result
// sink and finishes the batch when its last job has merged. It returns
// the jobs still unmerged.
func (s *scheduler) merge(tasks []*task, results []JobResult) int {
	k := 0
	for _, t := range tasks {
		for _, idx := range t.indices {
			if err := s.result(idx, results[k]); err != nil {
				s.finish(err)
			}
			k++
		}
	}
	s.mu.Lock()
	s.remaining -= k
	remaining := s.remaining
	s.mu.Unlock()
	if remaining == 0 {
		s.finish(nil)
	}
	return remaining
}
