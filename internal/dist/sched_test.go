package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestFairQueueRoundRobin is the starvation guarantee at the unit level:
// with a huge sweep and a small one pending, pops alternate between them,
// so the small sweep's last shard leaves the queue within 2×(its size)
// pops no matter how deep the huge backlog is.
func TestFairQueueRoundRobin(t *testing.T) {
	q := newFairQueue()
	mk := func(id string, n int) []*task {
		out := make([]*task, n)
		for i := range out {
			out[i] = &task{batchID: id, indices: []int{i}}
		}
		return out
	}
	q.add("huge", mk("huge", 100))
	q.add("small", mk("small", 3))

	var seen []string
	smallLeft := 3
	pops := 0
	for smallLeft > 0 {
		ts := q.pop(1)
		if len(ts) != 1 {
			t.Fatalf("pop drained early after %d pops", pops)
		}
		pops++
		seen = append(seen, ts[0].batchID)
		if ts[0].batchID == "small" {
			smallLeft--
		}
	}
	if pops > 6 {
		t.Errorf("small sweep needed %d pops to drain behind a 100-shard backlog (%v), want <= 6", pops, seen)
	}

	// Multi-shard pops keep rotating too: a pop of 4 must serve both.
	q2 := newFairQueue()
	q2.add("huge", mk("huge", 100))
	q2.add("small", mk("small", 2))
	got := map[string]int{}
	for _, ts := range q2.pop(4) {
		got[ts.batchID]++
	}
	if got["small"] != 2 || got["huge"] != 2 {
		t.Errorf("pop(4) = %v, want 2 shards from each sweep", got)
	}
}

// TestFairQueueRequeueAndDrop pins the retry and cancel edges: requeued
// shards land at the front of their sweep, and a dropped sweep's
// in-flight shards cannot be resurrected by a later requeue.
func TestFairQueueRequeueAndDrop(t *testing.T) {
	q := newFairQueue()
	a1 := &task{batchID: "a", indices: []int{0}}
	a2 := &task{batchID: "a", indices: []int{1}}
	q.add("a", []*task{a1, a2})

	got := q.pop(1)
	if len(got) != 1 || got[0] != a1 {
		t.Fatalf("pop = %v, want a1", got)
	}
	q.requeue(got)
	if next := q.pop(1); next[0] != a1 {
		t.Error("requeued shard did not return to the front of its sweep")
	}

	q.drop("a")
	if d := q.depth("a"); d != 0 {
		t.Errorf("depth after drop = %d, want 0", d)
	}
	q.requeue([]*task{a2})
	if d := q.depth("a"); d != 0 {
		t.Errorf("dropped sweep resurrected by requeue: depth = %d", d)
	}
	if got := q.pop(10); len(got) != 0 {
		t.Errorf("pop after drop returned %d shards", len(got))
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
