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

// failingWorker starts a worker that passes the /healthz handshake and
// answers 500 to every /run.
func failingWorker(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == PathHealthz {
			writeJSON(rw, http.StatusOK, Hello{Service: "vbiworker", Version: ProtocolVersion, Workers: 1})
			return
		}
		writeJSON(rw, http.StatusInternalServerError, errorBody{Error: "synthetic failure"})
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestCoordinatorAttemptCap runs a batch on one worker that answers 500
// to every /run, with a Retries budget that never drops it. Without a cap
// its serve loop would retry the shard until the run's deadline; the
// shard attempt cap must end the run with an error naming the cap.
func TestCoordinatorAttemptCap(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	coord := &Coordinator{Endpoints: []string{failingWorker(t)}, Retries: 1 << 20}
	_, err := coord.Run(ctx, testJobs(t)[:1])
	if err == nil || !strings.Contains(err.Error(), "shard failed 8 times") {
		t.Fatalf("err = %v, want the shard attempt cap", err)
	}
}

// TestCoordinatorAttemptCapAcrossWorkers bounces one shard between four
// workers that answer 500 to every /run, with a Retries budget that never
// drops them. The shard's attempt count is shared by every member's serve
// loop, so it must be counted before the shard goes back on the queue
// (this test is the -race regression for counting after), and the run
// must fail once the shard is refused eight times.
func TestCoordinatorAttemptCapAcrossWorkers(t *testing.T) {
	var endpoints []string
	for i := 0; i < 4; i++ {
		endpoints = append(endpoints, failingWorker(t))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	coord := &Coordinator{Endpoints: endpoints, ShardSize: 1, Retries: 1 << 20}
	_, err := coord.Run(ctx, testJobs(t)[:1])
	if err == nil || !strings.Contains(err.Error(), "shard failed 8 times") {
		t.Fatalf("err = %v, want the shard attempt cap", err)
	}
}
