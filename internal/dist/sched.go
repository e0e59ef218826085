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
// times across the whole fleet. By then the cause is the work itself
// (e.g. a job whose simulation errors deterministically), and bouncing
// the shard between members that are not yet dropped would never fix
// it.
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
// one per run. It runs one serve loop per member; each loop pulls up to
// the member's weight of shards, sends them as one /run request and
// merges or requeues them.
type scheduler struct {
	c     *Coordinator
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
// of c's ShardSize.
func newScheduler(c *Coordinator, jobs []harness.Job, indices []int,
	result func(idx int, jr JobResult) error) *scheduler {
	s := &scheduler{c: c, jobs: jobs, result: result, done: make(chan error, 1),
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

// dispatch runs the batch across members, one serve loop each, until
// every job has merged, the batch fails or ctx ends. A loop ends only
// when its member is dropped or the run ends, so when the last loop ends
// with jobs unmerged, every member was dropped and the batch fails with
// the last worker error. dispatch returns once every loop has exited, so
// no result sink runs after it returns.
func (s *scheduler) dispatch(ctx context.Context, members []Member) error {
	runCtx, cancel := context.WithCancel(ctx)
	var loops sync.WaitGroup
	for _, m := range members {
		loops.Add(1)
		go func() {
			defer loops.Done()
			s.serve(runCtx, m)
		}()
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		loops.Wait()
		s.mu.Lock()
		remaining, lastErr := s.remaining, s.lastErr
		s.mu.Unlock()
		if remaining > 0 && ctx.Err() == nil {
			s.finish(fmt.Errorf("dist: every worker failed: %w", lastErr))
		}
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

// serve is one member's dispatch loop: pull up to weight shards, send
// them as one request, merge or requeue. It exits when the run ends or
// when the member is dropped: after Retries consecutive failures, or at
// once on a version mismatch (412), which a stale worker binary can
// never recover from.
func (s *scheduler) serve(ctx context.Context, m Member) {
	consecutive := 0
	for ctx.Err() == nil {
		tasks := s.queue.pop(m.Weight)
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
		log := s.c.log().With("trace", trace, "worker", m.Base)
		log.Info("shard dispatch", "jobs", len(jobs), "shards", len(tasks))
		start := time.Now()
		resp, fatal, err := ExecuteShard(ctx, s.c.client(), m, s.c.AuthToken, s.c.timeout(), jobs, trace)
		if fatal == nil && err == nil {
			consecutive = 0
			remaining := s.merge(tasks, resp.Results)
			s.c.logf("dist: %s completed %d jobs (%d remaining)", m.Base, len(jobs), remaining)
			log.Info("shard complete", "jobs", len(jobs), "seconds", time.Since(start).Seconds(), "remaining", remaining)
			continue
		}
		if fatal != nil {
			s.failure(m.Base, fatal)
			s.queue.requeue(tasks)
			s.c.logf("dist: dropping worker %s permanently: %v", m.Base, fatal)
			log.Error("worker dropped", "err", fatal)
			return
		}
		if ctx.Err() != nil {
			// The run ending mid-request is not a worker failure: requeue
			// and leave quietly.
			s.queue.requeue(tasks)
			return
		}
		s.failure(m.Base, err)
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
			s.c.logf("dist: dropping worker %s after %d consecutive failures: %v", m.Base, consecutive, err)
			log.Warn("worker dropped", "failures", consecutive, "err", err)
			return
		}
		s.c.logf("dist: %s failed (attempt %d, %d jobs requeued): %v", m.Base, consecutive, len(jobs), err)
		log.Warn("shard requeued", "attempt", consecutive, "jobs", len(jobs), "err", err)
		if sleepCtx(ctx, time.Duration(consecutive)*100*time.Millisecond) != nil {
			return
		}
	}
}

// failure keeps a failed request's error for the every-worker-failed
// error.
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
