package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestShardQueueRequeueToFront pins the retry edge: a requeued shard goes
// back to the front of the queue, ahead of shards never tried, and keeps
// its attempt count.
func TestShardQueueRequeueToFront(t *testing.T) {
	var q shardQueue
	a, b, c := &task{indices: []int{0}}, &task{indices: []int{1}}, &task{indices: []int{2}}
	q.tasks = []*task{a, b, c}

	got := q.pop(2)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("pop(2) = %v, want a, b", got)
	}
	got[0].attempts++
	q.requeue(got)
	got = q.pop(10)
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Errorf("after requeue, pop = %v, want a, b, c", got)
	}
	if got[0].attempts != 1 {
		t.Errorf("requeued shard has %d attempts, want 1", got[0].attempts)
	}
	if rest := q.pop(1); len(rest) != 0 {
		t.Errorf("pop on an empty queue returned %d shards", len(rest))
	}
}

// TestCoordinatorAttemptCap runs a one-shot batch on a dynamic fleet
// whose only member answers 500 to every /run. Each drop quarantines the
// member and the quarantine lapses, so without a cap the run would retry
// until its deadline; the shard attempt cap must end it with an error
// naming the cap first.
func TestCoordinatorAttemptCap(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		writeJSON(rw, http.StatusInternalServerError, errorBody{Error: "synthetic failure"})
	}))
	t.Cleanup(worker.Close)

	reg := &Registry{TTL: 300 * time.Millisecond}
	regSrv := httptest.NewServer(reg.Handler())
	t.Cleanup(regSrv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	joinCtx, stopJoin := context.WithCancel(ctx)
	defer stopJoin()
	go (&Joiner{Coordinator: regSrv.URL, Advertise: worker.URL, Workers: 1}).Run(joinCtx)

	coord := &Coordinator{Fleet: reg, PollInterval: 5 * time.Millisecond}
	_, err := coord.Run(ctx, testJobs(t)[:1])
	if err == nil || !strings.Contains(err.Error(), "shard failed 8 times") {
		t.Fatalf("err = %v, want the shard attempt cap", err)
	}
}

// TestCoordinatorAttemptCapAcrossWorkers bounces one shard between four
// static workers that answer 500 to every /run, with a Retries budget
// that never drops them. The shard's attempt count is shared by every
// member's serve loop, so it must be counted before the shard goes back
// on the queue (this test is the -race regression for counting after),
// and the run must fail once the shard is refused eight times.
func TestCoordinatorAttemptCapAcrossWorkers(t *testing.T) {
	reg := &Registry{}
	for i := 0; i < 4; i++ {
		w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			http.Error(rw, "synthetic failure", http.StatusInternalServerError)
		}))
		t.Cleanup(w.Close)
		reg.Add(w.URL, 1, true, "")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	coord := &Coordinator{Fleet: reg, ShardSize: 1, Retries: 1 << 20, PollInterval: 5 * time.Millisecond}
	_, err := coord.Run(ctx, testJobs(t)[:1])
	if err == nil || !strings.Contains(err.Error(), "shard failed 8 times") {
		t.Fatalf("err = %v, want the shard attempt cap", err)
	}
}
