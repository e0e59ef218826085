package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"vbi/internal/harness"
)

// chaosCoordinator builds a coordinator tuned for fast membership churn in
// tests: tight polling, single-job shards, drop on first failure.
func chaosCoordinator(reg *Registry) *Coordinator {
	return &Coordinator{
		Fleet:        reg,
		ShardSize:    1,
		Retries:      1,
		Timeout:      time.Minute,
		PollInterval: 5 * time.Millisecond,
	}
}

// TestFleetJoinMidRun starts a dynamic-fleet sweep with no workers at all:
// the coordinator must wait (not fail), a worker joining after the sweep
// is already in flight must drain the whole batch, and the results must
// match the serial local run.
func TestFleetJoinMidRun(t *testing.T) {
	jobs := testJobs(t)
	want := localResults(t, jobs)

	reg := &Registry{TTL: time.Minute}
	regSrv := httptest.NewServer(reg.Handler())
	t.Cleanup(regSrv.Close)

	runDone := make(chan struct{})
	var got []harness.Result
	var runErr error
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	go func() {
		defer close(runDone)
		got, runErr = chaosCoordinator(reg).Run(ctx, jobs)
	}()

	// The sweep is in flight with zero members. Give the scheduler time to
	// enter its waiting state, then join a worker through the real
	// register+heartbeat path.
	time.Sleep(30 * time.Millisecond)
	select {
	case <-runDone:
		t.Fatal("sweep finished with no workers")
	default:
	}
	worker := newWorkerServer(t, 2)
	joinCtx, stopJoin := context.WithCancel(ctx)
	defer stopJoin()
	go (&Joiner{Coordinator: regSrv.URL, Advertise: worker.URL, Workers: 2}).Run(joinCtx)

	<-runDone
	if runErr != nil {
		t.Fatal(runErr)
	}
	matchLocal(t, got, want)
}

// TestChaosMembershipChurn is the full chaos scenario the dynamic fleet
// exists for: a sweep starts with one worker, which is killed while
// holding a shard; a second worker joins mid-run; the killed worker later
// rejoins (new process, same address) and serves again. The final matrix
// must be byte-identical to a serial local harness.Runner run.
func TestChaosMembershipChurn(t *testing.T) {
	grid := harness.Grid{
		Systems:   []string{"Native", "VBI-Full"},
		Workloads: []string{"namd", "sjeng"},
		Seeds:     []uint64{1, 2},
		Refs:      5_000,
	}
	jobs, err := grid.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&harness.Runner{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	reg := &Registry{TTL: 250 * time.Millisecond}
	regSrv := httptest.NewServer(reg.Handler())
	t.Cleanup(regSrv.Close)

	// Worker D ("doomed"): its first /run blocks holding the shard until
	// the test kills it, at which point the connection is dropped exactly
	// as a kill -9 would. Until then it heartbeats like a live process.
	var (
		dHolding  = make(chan struct{}) // closed: D holds a shard
		dKilled   = make(chan struct{}) // closed: D is dead
		dRejoined atomic.Bool           // D's second incarnation is up
		dServed   atomic.Int64          // jobs served by the rejoined D
	)
	inner := (&Worker{Runner: &harness.Runner{Workers: 1}}).Handler()
	var dHoldOnce atomic.Bool
	doomed := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != PathRun {
			inner.ServeHTTP(rw, req)
			return
		}
		if dRejoined.Load() {
			inner.ServeHTTP(rw, req)
			dServed.Add(1)
			return
		}
		if dHoldOnce.CompareAndSwap(false, true) {
			close(dHolding)
		}
		<-dKilled
		// Dead: drop the connection with the shard unanswered.
		hj, ok := rw.(http.Hijacker)
		if !ok {
			t.Error("response writer cannot hijack")
			return
		}
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(doomed.Close)

	// Worker B joins mid-run. It pauses before its fourth job until D has
	// rejoined and served something, which forces the rejoin to matter: B
	// alone is not allowed to finish the sweep.
	var bServed atomic.Int64
	bGate := make(chan struct{})
	bInner := (&Worker{Runner: &harness.Runner{Workers: 1}}).Handler()
	bWorker := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == PathRun && bServed.Add(1) >= 4 {
			<-bGate
		}
		bInner.ServeHTTP(rw, req)
	}))
	t.Cleanup(bWorker.Close)

	// Phase 0: D registers (instance d1) and heartbeats every 50ms until
	// killed, through the real HTTP registration path. The heartbeat
	// goroutines must not touch t (they can outlive the test briefly), so
	// they re-register fire-and-forget.
	register := func(addr, instance string) {
		resp := postRegister(t, regSrv.URL, RegisterRequest{
			Version: ProtocolVersion, Workers: 1, Addr: addr, Instance: instance}, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("register %s: %s", instance, resp.Status)
		}
	}
	heartbeat := func(addr, instance string) {
		b, err := json.Marshal(RegisterRequest{
			Version: ProtocolVersion, Workers: 1, Addr: addr, Instance: instance})
		if err != nil {
			return
		}
		resp, err := http.Post(regSrv.URL+PathRegister, "application/json", bytes.NewReader(b))
		if err == nil {
			resp.Body.Close()
		}
	}
	heartbeatCtx, stopHeartbeat := context.WithCancel(context.Background())
	defer stopHeartbeat()
	beat := func(addr, instance string, stop <-chan struct{}) {
		for {
			select {
			case <-heartbeatCtx.Done():
				return
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
				heartbeat(addr, instance)
			}
		}
	}
	register(doomed.URL, "d1")
	go beat(doomed.URL, "d1", dKilled)

	runDone := make(chan struct{})
	var got []harness.Result
	var runErr error
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	go func() {
		defer close(runDone)
		got, runErr = chaosCoordinator(reg).Run(ctx, jobs)
	}()

	// Phase 1: wait until D holds a shard, then bring B in mid-run.
	select {
	case <-dHolding:
	case <-runDone:
		t.Fatal("sweep finished before the doomed worker held a shard")
	}
	register(bWorker.URL, "b1")
	go beat(bWorker.URL, "b1", nil)

	// Phase 2: B is making progress; kill D while it still holds the
	// shard. The drop must requeue D's jobs onto B.
	for bServed.Load() < 2 {
		select {
		case <-runDone:
			t.Fatal("sweep finished while the doomed worker still held a shard")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(dKilled)

	// Phase 3: D rejoins as a new process (same address, new instance) and
	// must be readmitted despite its failure quarantine. B stays gated
	// until the rejoined D serves at least one job.
	dRejoined.Store(true)
	register(doomed.URL, "d2")
	go beat(doomed.URL, "d2", nil)
	for dServed.Load() == 0 {
		select {
		case <-runDone:
			t.Fatal("sweep finished without the rejoined worker serving anything")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(bGate)

	<-runDone
	if runErr != nil {
		t.Fatal(runErr)
	}
	if dServed.Load() == 0 {
		t.Error("rejoined worker served nothing")
	}
	matchLocal(t, got, want)

	// The headline invariant: the rendered matrix — the sweep's actual
	// output artifact — is byte-identical to the serial local run's,
	// regardless of the membership churn above.
	wt, err := grid.Matrix(want, harness.MetricIPC)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := grid.Matrix(got, harness.MetricIPC)
	if err != nil {
		t.Fatal(err)
	}
	if wt.Render() != gt.Render() {
		t.Errorf("chaos matrix differs from serial local run:\nlocal:\n%s\nchaos:\n%s",
			wt.Render(), gt.Render())
	}
}
