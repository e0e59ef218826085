package dist

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vbi/internal/harness"
	"vbi/internal/system"
)

// testJobs is a small batch (2 systems × 2 workloads), cheap enough to
// run several times per test binary.
func testJobs(t *testing.T) []harness.Job {
	t.Helper()
	jobs, err := harness.Grid{
		Systems:   []string{"Native", "VBI-Full"},
		Workloads: []string{"namd", "sjeng"},
		Refs:      5_000,
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// newWorkerServer starts an httptest server around a fresh Worker.
func newWorkerServer(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer((&Worker{Runner: &harness.Runner{Workers: workers}}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func localResults(t *testing.T, jobs []harness.Job) []harness.Result {
	t.Helper()
	want, err := (&harness.Runner{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// matchLocal asserts a distributed run's payload equals the serial local
// run's, position by position (the Cached flag legitimately differs).
func matchLocal(t *testing.T, got, want []harness.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Job, want[i].Job) {
			t.Errorf("result %d: job %+v, want %+v", i, got[i].Job, want[i].Job)
		}
		if !reflect.DeepEqual(got[i].Results, want[i].Results) {
			t.Errorf("result %d (%s): results differ from serial local run", i, want[i].Job.Describe())
		}
	}
}

// TestWorkerHandshake pins the /healthz contract: service name, the
// binary's harness version, and the advertised pool width.
func TestWorkerHandshake(t *testing.T) {
	srv := newWorkerServer(t, 3)
	resp, err := http.Get(srv.URL + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Hello
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Service != "vbiworker" || h.Version != ProtocolVersion || h.Workers != 3 {
		t.Errorf("handshake = %+v, want vbiworker/%s/3", h, ProtocolVersion)
	}
}

// TestWorkerRejectsStaleVersion asserts the per-request version gate: a
// /run carrying a different harness version gets 412 and no results.
func TestWorkerRejectsStaleVersion(t *testing.T) {
	srv := newWorkerServer(t, 1)
	body, _ := json.Marshal(RunRequest{Version: "vbi-harness-v0", Jobs: testJobs(t)})
	resp, err := http.Post(srv.URL+PathRun, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("status = %s, want 412", resp.Status)
	}
}

// TestDistributedMatchesLocal is the core determinism guarantee: a
// coordinator sharding across two workers produces the same results — and
// the same rendered matrix bytes — as a serial local run.
func TestDistributedMatchesLocal(t *testing.T) {
	grid := harness.Grid{
		Systems:   []string{"Native", "VBI-Full"},
		Workloads: []string{"namd", "sjeng"},
		Refs:      5_000,
	}
	jobs, err := grid.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	want := localResults(t, jobs)

	a, b := newWorkerServer(t, 2), newWorkerServer(t, 1)
	coord := &Coordinator{
		Endpoints: []string{a.URL, b.URL},
		ShardSize: 1, // force every job onto its own shard
	}
	got, err := coord.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	matchLocal(t, got, want)

	wt, err := grid.Matrix(want, harness.MetricIPC)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := grid.Matrix(got, harness.MetricIPC)
	if err != nil {
		t.Fatal(err)
	}
	if wt.Render() != gt.Render() {
		t.Errorf("distributed matrix differs:\nlocal:\n%s\ndistributed:\n%s", wt.Render(), gt.Render())
	}
}

// TestWorkerDeathRequeues kills one of two workers after its first shard:
// its remaining shards must requeue onto the survivor and the run must
// still match the serial local results.
func TestWorkerDeathRequeues(t *testing.T) {
	jobs := testJobs(t)
	want := localResults(t, jobs)

	// The doomed worker serves exactly one /run, then drops every
	// connection — the shape of a killed process, not a clean error reply.
	// Its second /run closes askedTwice.
	inner := (&Worker{Runner: &harness.Runner{Workers: 1}}).Handler()
	var served atomic.Int64
	askedTwice := make(chan struct{})
	doomed := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != PathRun {
			inner.ServeHTTP(rw, req)
			return
		}
		n := served.Add(1)
		if n == 2 {
			close(askedTwice)
		}
		if n > 1 {
			hj, ok := rw.(http.Hijacker)
			if !ok {
				t.Error("response writer cannot hijack")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		inner.ServeHTTP(rw, req)
	}))
	t.Cleanup(doomed.Close)
	// The healthy worker holds its second /run until the doomed worker has
	// been asked twice. Of the four one-job shards, one each is then out
	// and one is held, so the doomed worker pulls the last and dies on it
	// however fast the healthy one is. The hold is bounded, so a scheduler
	// that never asks the doomed worker again fails the test, not hangs it.
	healthyInner := (&Worker{Runner: &harness.Runner{Workers: 1}}).Handler()
	var healthyRuns atomic.Int64
	healthy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == PathRun && healthyRuns.Add(1) == 2 {
			select {
			case <-askedTwice:
			case <-time.After(30 * time.Second):
				t.Error("the doomed worker got no second /run within 30s of the healthy worker's second")
			}
		}
		healthyInner.ServeHTTP(rw, req)
	}))
	t.Cleanup(healthy.Close)

	coord := &Coordinator{
		Endpoints: []string{doomed.URL, healthy.URL},
		ShardSize: 1,
		Retries:   1,
		Timeout:   time.Minute,
	}
	got, err := coord.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	matchLocal(t, got, want)
	if served.Load() < 2 {
		t.Errorf("doomed worker saw %d /run requests; the kill never triggered", served.Load())
	}
}

// TestAllWorkersDeadFails asserts the coordinator reports failure — it
// must not silently fall back to local execution — when every endpoint
// dies mid-run.
func TestAllWorkersDeadFails(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == PathHealthz {
			writeJSON(rw, http.StatusOK, Hello{Service: "vbiworker", Version: ProtocolVersion, Workers: 1})
			return
		}
		writeJSON(rw, http.StatusInternalServerError, errorBody{Error: "synthetic failure"})
	}))
	t.Cleanup(srv.Close)
	coord := &Coordinator{Endpoints: []string{srv.URL}, Retries: 1}
	if _, err := coord.Run(context.Background(), testJobs(t)); err == nil {
		t.Fatal("run with a permanently failing worker succeeded")
	}
}

// TestNoLiveWorkersNamesSkipped asserts that a run whose every endpoint
// is skipped fails with an error naming each endpoint and why it was
// skipped: the probe error of a closed listener or of a wrong token, or
// "draining". The skip log alone is silent without -v.
func TestNoLiveWorkersNamesSkipped(t *testing.T) {
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	locked := httptest.NewServer((&Worker{Runner: &harness.Runner{Workers: 1}, AuthToken: "sesame"}).Handler())
	t.Cleanup(locked.Close)
	w := &Worker{Runner: &harness.Runner{Workers: 1}}
	w.SetDraining(true)
	draining := httptest.NewServer(w.Handler())
	t.Cleanup(draining.Close)

	coord := &Coordinator{Endpoints: []string{closed.URL, locked.URL, draining.URL}, AuthToken: "wrong"}
	_, err := coord.Run(context.Background(), testJobs(t))
	if err == nil {
		t.Fatal("run with no live worker succeeded")
	}
	for _, want := range []string{
		"no live workers",
		closed.URL + ": ", "connection refused",
		locked.URL + ": healthz: 401",
		draining.URL + ": draining",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// TestStaleCoordinatorVersionFatal asserts the handshake gate: an
// endpoint advertising a different harness version aborts the run before
// any job is dispatched.
func TestStaleCoordinatorVersionFatal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		writeJSON(rw, http.StatusOK, Hello{Service: "vbiworker", Version: "vbi-harness-v0", Workers: 1})
	}))
	t.Cleanup(srv.Close)
	coord := &Coordinator{Endpoints: []string{srv.URL}}
	_, err := coord.Run(context.Background(), testJobs(t))
	if err == nil || !strings.Contains(err.Error(), "vbi-harness-v0") {
		t.Fatalf("stale worker version not rejected: err = %v", err)
	}
}

// TestNoEndpointsRunsLocally asserts the documented fallback: an empty
// endpoint list executes on the local pool.
func TestNoEndpointsRunsLocally(t *testing.T) {
	jobs := testJobs(t)
	got, err := (&Coordinator{}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	matchLocal(t, got, localResults(t, jobs))
}

// TestCoordinatorStreamsCache asserts completed shards land in the
// coordinator's cache as they arrive, and that a warmed cache serves a
// re-run without any network traffic — even against a dead endpoint.
func TestCoordinatorStreamsCache(t *testing.T) {
	jobs := testJobs(t)
	cache := &harness.Cache{Dir: t.TempDir()}
	srv := newWorkerServer(t, 2)

	first, err := (&Coordinator{Endpoints: []string{srv.URL}, Cache: cache, ShardSize: 2}).
		Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cache.Len(); err != nil || n != len(jobs) {
		t.Fatalf("cache holds %d entries (err=%v), want %d", n, err, len(jobs))
	}

	// The worker is gone; only the cache can answer now.
	srv.Close()
	second, err := (&Coordinator{Endpoints: []string{srv.URL}, Cache: cache}).
		Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		if !second[i].Cached {
			t.Errorf("job %d not served from cache on re-run", i)
		}
		if !reflect.DeepEqual(first[i].Results, second[i].Results) {
			t.Errorf("job %d: cached results differ from remote results", i)
		}
	}
}

// TestCoordinatorValidatesBeforeDispatch asserts a bad job fails the
// batch before any network traffic (the endpoint does not even exist).
func TestCoordinatorValidatesBeforeDispatch(t *testing.T) {
	coord := &Coordinator{Endpoints: []string{"127.0.0.1:1"}}
	_, err := coord.Run(context.Background(), []harness.Job{{
		Spec:      &system.Spec{Name: "NotASystem", Base: "NotASystem"},
		Workloads: []string{"namd"}}})
	if err == nil || !strings.Contains(err.Error(), "NotASystem") {
		t.Fatalf("invalid job not rejected up front: err = %v", err)
	}
}

// TestCoordinatorHonorsContext asserts a cancelled context aborts a
// distributed run with ctx.Err().
func TestCoordinatorHonorsContext(t *testing.T) {
	srv := newWorkerServer(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := (&Coordinator{Endpoints: []string{srv.URL}}).Run(ctx, testJobs(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSelfDescribingVariantRunsOnWorker is the regression for the
// since-PR-3 wire bug: a variant spec known only to the coordinator used
// to fail on every worker, because jobs travelled as names that each
// process re-resolved locally. Jobs now carry their resolved spec, so a
// spec that is registered in NO process at all — materialized inline here
// — must run on a remote worker and match the equivalent local
// base+overlay run byte for byte.
func TestSelfDescribingVariantRunsOnWorker(t *testing.T) {
	variant := &system.Spec{Name: "Coordinator-Only-128TLB", Base: "Native",
		Params: system.Params{L2TLBEntries: 128}}
	jobs := []harness.Job{{Spec: variant, Workloads: []string{"namd"}, Refs: 3_000}}

	srv := newWorkerServer(t, 2)
	got, err := (&Coordinator{Endpoints: []string{srv.URL}}).
		Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("unregistered variant failed on the worker: %v", err)
	}

	// The same configuration spelled as base kind + job overlay, run
	// locally: the variant's overlay must have reached the remote
	// simulator (not been dropped or defaulted).
	equiv := []harness.Job{{Spec: system.MustSpec("Native"), Workloads: []string{"namd"},
		Refs: 3_000, Params: system.Params{L2TLBEntries: 128}}}
	want := localResults(t, equiv)
	if !reflect.DeepEqual(got[0].Results, want[0].Results) {
		t.Error("worker-run variant results differ from the equivalent local base+overlay run")
	}

	base := localResults(t, []harness.Job{{Spec: system.MustSpec("Native"),
		Workloads: []string{"namd"}, Refs: 3_000}})
	if reflect.DeepEqual(got[0].Results, base[0].Results) {
		t.Error("variant ran identically to default Native: the overlay never crossed the wire")
	}
}
