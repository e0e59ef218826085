package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vbi/internal/dist"
	"vbi/internal/harness"
)

// FuzzJournalRecord feeds arbitrary bytes to the journal loader as one
// *.sweep.json record. Loading must never panic, and a record the
// daemon cannot safely resume — unreadable, from another harness
// version, naming a sweep other than its file, or active with no jobs —
// must be skipped with a log line saying why, leaving the rest of the
// daemon serving.
func FuzzJournalRecord(f *testing.F) {
	const stem = "sw-fuzz"
	jobs, err := testGrid().Jobs()
	if err != nil {
		f.Fatal(err)
	}
	rec := func(id, state string, jobs []harness.Job) []byte {
		b, err := json.Marshal(record{Version: harness.Version, ID: id, State: state,
			Metric: harness.MetricIPC, Grid: testGrid(), Jobs: jobs})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(rec(stem, StateQueued, jobs))
	f.Add(rec(stem, StateDone, jobs))
	f.Add(rec(stem, StateFailed, nil))
	f.Add(rec("sw-other", StateQueued, jobs))
	f.Add(rec(stem, StateQueued, nil))
	f.Add([]byte(`{"version":"vbi-harness-v0","id":"sw-fuzz","state":"queued"}`))
	f.Add([]byte(`{"id":`))

	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, stem+".sweep.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		var logs bytes.Buffer
		srv := &Server{
			Dir:    dir,
			Cache:  &harness.Cache{Dir: t.TempDir()},
			Fleet:  &dist.Registry{},
			Logger: slog.New(slog.NewTextHandler(&logs, nil)),
		}
		// A cancelled context stops the scheduler after its first poll;
		// only loading is under test.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := srv.Start(ctx); err != nil {
			t.Fatal(err)
		}

		var r record
		resumable := json.Unmarshal(b, &r) == nil && r.Version == harness.Version &&
			r.ID == stem && (terminal(r.State) || len(r.Jobs) > 0)
		srv.mu.Lock()
		loaded := len(srv.order)
		srv.mu.Unlock()
		switch {
		case resumable && loaded != 1:
			t.Fatalf("resumable record not loaded; log:\n%s", logs.String())
		case !resumable && loaded != 0:
			t.Fatalf("unresumable record loaded: %s", b)
		case !resumable && !strings.Contains(logs.String(), "sweepd: skipping"):
			t.Fatalf("record skipped without a log line: %s", b)
		}

		rw := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, PathSweeps, nil))
		if rw.Code != http.StatusOK {
			t.Fatalf("GET %s after load: %d", PathSweeps, rw.Code)
		}
	})
}
