package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vbi/internal/harness"
	"vbi/internal/obs"
)

// TestJobResultTimingWireBytes pins the wire3 JobResult encoding: the
// timing record travels beside the results under a fixed key set, so a
// worker and coordinator built from this commit agree byte-for-byte.
func TestJobResultTimingWireBytes(t *testing.T) {
	jr := JobResult{
		Cached: false,
		Timing: &obs.JobTiming{
			WallNanos:  1_500_000,
			QueueNanos: 2_000,
			Phases:     obs.PhaseCounts{TLB: 1, PWC: 2, Walk: 3, Cache: 4, DRAM: 5},
		},
	}
	b, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"results":null,"cached":false,"timing":{"wall_nanos":1500000,"queue_nanos":2000,"phases":{"tlb":1,"pwc":2,"walk":3,"cache":4,"dram":5}}}`
	if string(b) != want {
		t.Errorf("JobResult wire bytes:\n got %s\nwant %s", b, want)
	}
	// Without timing the field disappears entirely, so wire2-era readers
	// of the result payload see nothing new on cached-only responses.
	b, err = json.Marshal(JobResult{Cached: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"results":null,"cached":true}`; string(b) != want {
		t.Errorf("timing-less JobResult wire bytes:\n got %s\nwant %s", b, want)
	}
}

// logTraces extracts the "trace" attribute from every JSON log record in
// buf.
func logTraces(t *testing.T, buf *bytes.Buffer) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log record %q: %v", line, err)
		}
		if tr, ok := rec["trace"].(string); ok {
			out = append(out, tr)
		}
	}
	return out
}

// TestTracePropagation runs a distributed batch with structured JSON
// logging on both sides and asserts the coordinator's per-shard trace
// chain ("<root>/<seq>") appears verbatim in the worker's records — the
// one-grep-joins-both-logs contract — and that per-job timing survives
// the wire back into the merged results.
func TestTracePropagation(t *testing.T) {
	jobs := testJobs(t)

	var workerLog, coordLog bytes.Buffer
	w := &Worker{
		Runner: &harness.Runner{Workers: 2},
		Logger: slog.New(slog.NewJSONHandler(&workerLog, nil)),
	}
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)

	coord := &Coordinator{
		Endpoints: []string{srv.URL},
		Logger:    slog.New(slog.NewJSONHandler(&coordLog, nil)),
	}
	results, err := coord.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	coordTraces := logTraces(t, &coordLog)
	if len(coordTraces) == 0 {
		t.Fatal("coordinator logged no trace attributes")
	}
	var shardTraces []string
	for _, tr := range coordTraces {
		if strings.Contains(tr, "/") { // child IDs only; the root has no shard seq
			shardTraces = append(shardTraces, tr)
		}
	}
	if len(shardTraces) == 0 {
		t.Fatalf("coordinator logged no shard trace chains, only %v", coordTraces)
	}
	workerTraces := map[string]bool{}
	for _, tr := range logTraces(t, &workerLog) {
		workerTraces[tr] = true
	}
	for _, tr := range shardTraces {
		if !workerTraces[tr] {
			t.Errorf("shard trace %s never appeared in the worker's log (worker saw %v)", tr, workerTraces)
		}
	}

	// wire3 end-to-end: every remotely simulated job carries its timing
	// beside its results.
	for i, r := range results {
		if r.Timing == nil {
			t.Fatalf("result %d (%s) has no timing", i, r.Job.Describe())
		}
		if r.Timing.Cached {
			t.Errorf("result %d marked cached on a cacheless worker", i)
		}
		if r.Timing.WallNanos <= 0 {
			t.Errorf("result %d: wall %d ns, want > 0", i, r.Timing.WallNanos)
		}
		if r.Timing.Phases.IsZero() {
			t.Errorf("result %d: zero phase counts for a simulated job", i)
		}
	}
}

// scrape fetches a worker's /metrics exposition.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", PathMetrics, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q, want text/plain exposition", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWorkerMetricsDeterministic runs a shard through a worker and pins
// the /metrics exposition's shape: every new family present, label
// values in sorted order, and two scrapes of quiesced state
// byte-identical.
func TestWorkerMetricsDeterministic(t *testing.T) {
	jobs := testJobs(t)
	srv := newWorkerServer(t, 2)

	m := Member{Base: srv.URL, Weight: 2}
	resp, fatal, retry := ExecuteShard(context.Background(), http.DefaultClient, m, "",
		time.Minute, jobs, "t-test/1")
	if fatal != nil || retry != nil {
		t.Fatalf("ExecuteShard: fatal=%v retry=%v", fatal, retry)
	}
	if len(resp.Results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(resp.Results), len(jobs))
	}

	first := scrape(t, srv.URL)
	second := scrape(t, srv.URL)
	if first != second {
		t.Errorf("two scrapes of quiesced state differ:\n--- first\n%s\n--- second\n%s", first, second)
	}

	for _, want := range []string{
		"# TYPE vbiworker_in_flight_jobs gauge",
		"vbiworker_in_flight_jobs 0",
		"vbiworker_shards_total 1",
		`vbiworker_jobs_total{result="cached"} 0`,
		`vbiworker_jobs_total{result="simulated"} 4`,
		"# TYPE vbiworker_job_seconds histogram",
		`vbiworker_job_seconds_bucket{le="+Inf"} 4`,
		"vbiworker_job_seconds_count 4",
		`vbiworker_job_seconds_quantile{quantile="0.5"}`,
		`vbiworker_job_seconds_quantile{quantile="0.99"}`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Phase label order is pinned sorted; the counts themselves are
	// deterministic simulation counters, so just pin the order.
	idx := -1
	for _, phase := range []string{"cache", "dram", "pwc", "tlb", "walk"} {
		at := strings.Index(first, `vbiworker_phase_events_total{phase="`+phase+`"}`)
		if at < 0 {
			t.Fatalf("exposition missing phase %q", phase)
		}
		if at < idx {
			t.Errorf("phase %q rendered out of sorted order", phase)
		}
		idx = at
	}
}

// TestWorkerPprofGate asserts /debug/pprof is absent by default and
// served (behind the same handler) when Pprof is set.
func TestWorkerPprofGate(t *testing.T) {
	off := newWorkerServer(t, 1)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("default worker serves /debug/pprof/: %s", resp.Status)
	}

	on := httptest.NewServer((&Worker{Runner: &harness.Runner{Workers: 1}, Pprof: true}).Handler())
	t.Cleanup(on.Close)
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("-pprof worker refuses /debug/pprof/cmdline: %s", resp.Status)
	}
}
