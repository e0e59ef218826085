package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vbi/internal/dist"
	"vbi/internal/harness"
	"vbi/internal/stats"
)

// testGrid is the canonical small sweep: 2 systems × 2 workloads, cheap
// enough to run several times per test binary.
func testGrid() harness.Grid {
	return harness.Grid{
		Systems:   []string{"Native", "VBI-Full"},
		Workloads: []string{"namd", "sjeng"},
		Refs:      5_000,
	}
}

// localTable renders the grid's matrix from a serial local run — the
// byte-identity reference every daemon result must match.
func localTable(t *testing.T, grid harness.Grid, metric string) []byte {
	t.Helper()
	jobs, err := grid.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&harness.Runner{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := grid.Matrix(results, metric)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderTable re-renders a SweepResponse.Table the way a client writing
// an artifact does (decode, WriteJSON). HTTP transport compacts embedded
// JSON whitespace; re-encoding restores the exact local byte shape
// because float64 values round-trip exactly.
func renderTable(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var tab stats.Table
	if err := json.Unmarshal(raw, &tab); err != nil {
		t.Fatalf("decode table: %v", err)
	}
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer builds a started Server over the given journal/cache
// dirs, plus an httptest front-end serving its full Handler. The returned
// cancel is the daemon's kill switch (scheduler stops, nothing is
// journaled — the closest a test gets to kill -9).
func newTestServer(t *testing.T, dir, cacheDir string) (*Server, *httptest.Server, context.CancelFunc) {
	t.Helper()
	srv := &Server{
		Dir:       dir,
		Cache:     &harness.Cache{Dir: cacheDir},
		Fleet:     &dist.Registry{},
		ShardSize: 1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := srv.Start(ctx); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv.Handler())
	t.Cleanup(front.Close)
	t.Cleanup(cancel)
	return srv, front, cancel
}

// addWorker registers a fresh in-process worker with the server's fleet.
func addWorker(t *testing.T, srv *Server, workers int) {
	t.Helper()
	w := httptest.NewServer((&dist.Worker{Runner: &harness.Runner{Workers: workers}}).Handler())
	t.Cleanup(w.Close)
	srv.Fleet.Add(w.URL, workers, true, "")
}

// submit POSTs a sweep and returns its id.
func submit(t *testing.T, base, name string, grid harness.Grid) string {
	t.Helper()
	body, _ := json.Marshal(SubmitRequest{
		Version: dist.ProtocolVersion,
		Name:    name,
		Grid:    grid,
	})
	resp, err := http.Post(base+PathSweeps, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %s", resp.Status)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.ID == "" || sr.Total == 0 {
		t.Fatalf("submit response = %+v", sr)
	}
	return sr.ID
}

// get fetches one sweep's status + table.
func get(t *testing.T, base, id string) SweepResponse {
	t.Helper()
	resp, err := http.Get(base + PathSweeps + "/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %s", id, resp.Status)
	}
	var sr SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// waitState polls until the sweep reaches the wanted state (or the sweep
// fails the test at timeout).
func waitState(t *testing.T, base, id, want string) SweepResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		sr := get(t, base, id)
		if sr.State == want {
			return sr
		}
		if terminal(sr.State) {
			t.Fatalf("sweep %s reached %s (error %q), want %s", id, sr.State, sr.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in %s (completed %d/%d), want %s",
				id, sr.State, sr.Completed, sr.Total, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSubmitRunsToCompletion is the service's core contract: a sweep
// submitted over the API runs on the fleet to done, and its stored table
// is byte-identical to a serial local run's JSON export.
func TestSubmitRunsToCompletion(t *testing.T) {
	srv, front, _ := newTestServer(t, t.TempDir(), t.TempDir())
	addWorker(t, srv, 2)

	grid := testGrid()
	id := submit(t, front.URL, "fig6", grid)
	sr := waitState(t, front.URL, id, StateDone)
	if sr.Completed != sr.Total || sr.Total != 4 {
		t.Errorf("completed %d/%d, want 4/4", sr.Completed, sr.Total)
	}
	want := localTable(t, grid, harness.MetricIPC)
	if got := renderTable(t, sr.Table); !bytes.Equal(got, want) {
		t.Errorf("daemon table differs from serial local run:\n got: %s\nwant: %s", got, want)
	}
}

// TestSubmitVersionGate pins the 412 on a client from a different binary.
func TestSubmitVersionGate(t *testing.T) {
	_, front, _ := newTestServer(t, t.TempDir(), t.TempDir())
	body, _ := json.Marshal(SubmitRequest{Version: "vbi-harness-v0+wire1", Grid: testGrid()})
	resp, err := http.Post(front.URL+PathSweeps, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Errorf("status = %s, want 412", resp.Status)
	}
}

// TestDryFleetIsBackpressure asserts a submit with no workers queues
// instead of failing, and that a worker joining later drains it.
func TestDryFleetIsBackpressure(t *testing.T) {
	srv, front, _ := newTestServer(t, t.TempDir(), t.TempDir())
	id := submit(t, front.URL, "", testGrid())

	time.Sleep(100 * time.Millisecond)
	sr := get(t, front.URL, id)
	if sr.State != StateQueued {
		t.Fatalf("state with dry fleet = %s, want %s", sr.State, StateQueued)
	}
	if sr.Queued != sr.Total {
		t.Errorf("queued = %d, want %d", sr.Queued, sr.Total)
	}

	addWorker(t, srv, 2)
	waitState(t, front.URL, id, StateDone)
}

// TestRestartResumesFromJournal is the durability contract: two sweeps
// submitted to a daemon that dies mid-sweep (journaled, partially cached,
// never finalized) are resumed by a fresh daemon over the same journal
// and cache dirs, and both finish with matrices byte-identical to serial
// local runs.
func TestRestartResumesFromJournal(t *testing.T) {
	dir, cacheDir := t.TempDir(), t.TempDir()

	// First daemon: no workers ever join, so after the cache pre-pass the
	// sweeps sit queued. Pre-warm the shared cache with a strict subset of
	// sweep 1's jobs to make the resume genuinely incremental.
	cache := &harness.Cache{Dir: cacheDir}
	grid1, grid2 := testGrid(), harness.Grid{
		Systems:   []string{"Native", "VBI-Full"},
		Workloads: []string{"mcf"},
		Refs:      5_000,
	}
	jobs1, err := grid1.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	warmed, err := (&harness.Runner{Workers: 1}).Run(context.Background(), jobs1[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range warmed {
		if err := cache.Put(r.Job, r.Results); err != nil {
			t.Fatal(err)
		}
	}

	_, front1, kill := newTestServer(t, dir, cacheDir)
	id1 := submit(t, front1.URL, "big", grid1)
	id2 := submit(t, front1.URL, "small", grid2)

	sr := get(t, front1.URL, id1)
	if sr.Cached != 2 || sr.Completed != 2 {
		t.Fatalf("pre-warmed sweep shows completed=%d cached=%d, want 2/2", sr.Completed, sr.Cached)
	}

	// Kill the daemon mid-sweep: scheduler stops, nothing further is
	// journaled. The journal now holds two non-terminal records.
	kill()
	front1.Close()

	// Second daemon over the same dirs, this time with a worker.
	srv2, front2, _ := newTestServer(t, dir, cacheDir)
	addWorker(t, srv2, 2)

	done1 := waitState(t, front2.URL, id1, StateDone)
	done2 := waitState(t, front2.URL, id2, StateDone)
	if done1.Cached < 2 {
		t.Errorf("resumed sweep served %d jobs from cache, want >= 2", done1.Cached)
	}
	if want := localTable(t, grid1, harness.MetricIPC); !bytes.Equal(renderTable(t, done1.Table), want) {
		t.Errorf("resumed sweep 1 table differs from serial local run:\n got: %s\nwant: %s", done1.Table, want)
	}
	if want := localTable(t, grid2, harness.MetricIPC); !bytes.Equal(renderTable(t, done2.Table), want) {
		t.Errorf("resumed sweep 2 table differs from serial local run:\n got: %s\nwant: %s", done2.Table, want)
	}

	// The terminal records survive another restart as queryable history.
	_, front3, _ := newTestServer(t, dir, cacheDir)
	again := get(t, front3.URL, id1)
	if again.State != StateDone || !bytes.Equal(again.Table, done1.Table) {
		t.Error("terminal sweep not reloaded intact after a third restart")
	}
}

// TestCancelAndForget pins DELETE semantics: cancelling an active sweep
// is terminal and journaled; deleting a terminal sweep forgets it.
func TestCancelAndForget(t *testing.T) {
	dir := t.TempDir()
	_, front, _ := newTestServer(t, dir, t.TempDir())
	id := submit(t, front.URL, "", testGrid()) // dry fleet: stays queued

	req, _ := http.NewRequest(http.MethodDelete, front.URL+PathSweeps+"/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr := get(t, front.URL, id); sr.State != StateCancelled {
		t.Fatalf("state after cancel = %s, want %s", sr.State, StateCancelled)
	}

	// A restart must reload the cancelled sweep as history, not resume it.
	_, front2, _ := newTestServer(t, dir, t.TempDir())
	if sr := get(t, front2.URL, id); sr.State != StateCancelled {
		t.Fatalf("cancelled sweep reloaded as %s", sr.State)
	}

	// Second DELETE forgets it entirely.
	req, _ = http.NewRequest(http.MethodDelete, front2.URL+PathSweeps+"/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gone, err := http.Get(front2.URL + PathSweeps + "/" + id)
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Errorf("forgotten sweep answered %s, want 404", gone.Status)
	}
}

// TestFairSchedulingAcrossSweeps is the starvation guarantee end-to-end:
// a small sweep submitted behind a much larger one finishes while the big
// one is still running (single slow-ish worker, shard size 1).
func TestFairSchedulingAcrossSweeps(t *testing.T) {
	srv, front, _ := newTestServer(t, t.TempDir(), t.TempDir())

	big := harness.Grid{
		Systems:   []string{"Native", "VBI-1", "VBI-Full"},
		Workloads: []string{"namd", "sjeng", "mcf", "milc"},
		Refs:      20_000,
	}
	small := harness.Grid{
		Systems:   []string{"Native"},
		Workloads: []string{"namd"},
		Refs:      20_000,
	}
	bigID := submit(t, front.URL, "big", big)
	smallID := submit(t, front.URL, "small", small)
	addWorker(t, srv, 1)

	smallDone := waitState(t, front.URL, smallID, StateDone)
	bigAt := get(t, front.URL, bigID)
	if bigAt.Completed >= bigAt.Total {
		t.Skip("big sweep finished before the small one could be observed; host too fast to measure fairness")
	}
	if smallDone.State != StateDone {
		t.Errorf("small sweep = %s while big at %d/%d", smallDone.State, bigAt.Completed, bigAt.Total)
	}
	waitState(t, front.URL, bigID, StateDone)
}

// TestShardAttemptCapAcrossWorkers bounces one shard between four
// static workers that answer 500 to every /run, with a Retries budget
// that never drops them. The shard's attempt count is shared by every
// member's serve loop, so it must be counted before the shard goes back
// on the queue (this test is the -race regression for counting after),
// and the sweep must fail once the shard is refused eight times.
func TestShardAttemptCapAcrossWorkers(t *testing.T) {
	srv := &Server{
		Dir:       t.TempDir(),
		Fleet:     &dist.Registry{},
		ShardSize: 1,
		Retries:   1 << 20,
	}
	for i := 0; i < 4; i++ {
		w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			http.Error(rw, "synthetic failure", http.StatusInternalServerError)
		}))
		t.Cleanup(w.Close)
		srv.Fleet.Add(w.URL, 1, true, "")
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := srv.Start(ctx); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv.Handler())
	t.Cleanup(front.Close)
	t.Cleanup(cancel)

	id := submit(t, front.URL, "doomed", harness.Grid{
		Systems:   []string{"Native"},
		Workloads: []string{"namd"},
		Refs:      5_000,
	})
	sr := waitState(t, front.URL, id, StateFailed)
	if !strings.Contains(sr.Error, "shard failed 8 times") {
		t.Errorf("sweep error = %q, want the shard attempt cap", sr.Error)
	}
}

// TestStatusAndMetrics scrapes both observability planes after a done
// sweep and sanity-checks their content.
func TestStatusAndMetrics(t *testing.T) {
	srv, front, _ := newTestServer(t, t.TempDir(), t.TempDir())
	addWorker(t, srv, 2)
	id := submit(t, front.URL, "obs", testGrid())
	waitState(t, front.URL, id, StateDone)

	resp, err := http.Get(front.URL + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Service != "vbisweepd" || st.Version != dist.ProtocolVersion {
		t.Errorf("status header = %s/%s", st.Service, st.Version)
	}
	if len(st.Fleet) != 1 {
		t.Errorf("status fleet = %d members, want 1", len(st.Fleet))
	}
	if len(st.Sweeps) != 1 || st.Sweeps[0].ID != id {
		t.Errorf("status sweeps = %+v", st.Sweeps)
	}

	mresp, err := http.Get(front.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"sweepd_fleet_workers 1",
		fmt.Sprintf("sweepd_sweeps{state=%q} 1", StateDone),
		"sweepd_jobs_completed_total 4",
		"sweepd_sweeps_submitted_total 1",
		"sweepd_shards_completed_total{worker=",
		"sweepd_cache_hits_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestAuthGate asserts the shared-token gate covers the sweep API.
func TestAuthGate(t *testing.T) {
	srv := &Server{
		Dir:       t.TempDir(),
		Fleet:     &dist.Registry{},
		AuthToken: "sekrit",
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := srv.Start(ctx); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated /status = %s, want 401", resp.Status)
	}
	req, _ := http.NewRequest(http.MethodGet, front.URL+PathStatus, nil)
	req.Header.Set("Authorization", "Bearer sekrit")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("authenticated /status = %s, want 200", resp.Status)
	}
}
