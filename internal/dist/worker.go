package dist

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	nhpprof "net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"vbi/internal/harness"
	"vbi/internal/obs"
)

// Worker serves harness job batches over the dist protocol. It wraps a
// local harness.Runner: /run executes a shard through the runner's pool
// (and cache, when configured) and returns positional results plus
// per-job timing; /healthz serves the version handshake; /metrics the
// Prometheus exposition. cmd/vbiworker is the daemon around it, but any
// http server can mount Handler (the tests use httptest).
type Worker struct {
	// Runner executes the shards. A nil Runner means a default local pool
	// (GOMAXPROCS workers, no cache).
	Runner *harness.Runner
	// AuthToken, when non-empty, gates every route (constant-time bearer
	// compare, 401 on mismatch), so an unauthenticated coordinator cannot
	// hand this worker shards. It must match the coordinator's token.
	AuthToken string
	// Logger, when non-nil, receives one structured record per shard.
	// Records carry the coordinator's trace-ID chain (the obs.TraceHeader
	// request header) as a "trace" attribute, so one job's lifecycle
	// greps across the coordinator's and this worker's logs.
	Logger *slog.Logger
	// Pprof, when true, mounts net/http/pprof's handlers under
	// /debug/pprof/ on the same (auth-gated) mux — opt-in, because
	// profiles expose process internals beyond what shard peers need.
	Pprof bool

	draining atomic.Bool
	metrics  workerMetrics
}

// SetDraining flips the worker into (or out of) drain mode: /run refuses
// new shards with 503 (the coordinator requeues them elsewhere) while
// requests already executing run to completion, and /healthz advertises
// Draining so a handshaking coordinator skips the worker entirely.
// cmd/vbiworker sets it on the first SIGTERM, then waits for in-flight
// shards before exiting.
func (w *Worker) SetDraining(v bool) { w.draining.Store(v) }

// Draining reports whether the worker is refusing new shards.
func (w *Worker) Draining() bool { return w.draining.Load() }

// PoolWidth is the worker count advertised in the handshake: the
// runner's, defaulted the same way the runner itself defaults it.
func (w *Worker) PoolWidth() int {
	n := 0
	if w.Runner != nil {
		n = w.Runner.Workers
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

func (w *Worker) log() *slog.Logger {
	if w.Logger != nil {
		return w.Logger
	}
	return obs.Discard
}

// Handler returns the worker's HTTP handler, serving PathHealthz,
// PathRun and PathMetrics (plus /debug/pprof/ when Pprof is set),
// auth-gated when AuthToken is set.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathHealthz, w.handleHealthz)
	mux.HandleFunc(PathRun, w.handleRun)
	mux.HandleFunc(PathMetrics, w.handleMetrics)
	if w.Pprof {
		// Mounted explicitly (not via the package's init-time
		// DefaultServeMux registration) so the profiles sit behind the
		// same auth gate as every other route.
		mux.HandleFunc("/debug/pprof/", nhpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", nhpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", nhpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", nhpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", nhpprof.Trace)
	}
	return RequireAuth(w.AuthToken, mux)
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v)
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeJSON(rw, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	writeJSON(rw, http.StatusOK, Hello{
		Service:  "vbiworker",
		Version:  ProtocolVersion,
		Workers:  w.PoolWidth(),
		Draining: w.Draining(),
	})
}

func (w *Worker) handleMetrics(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeJSON(rw, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rw.WriteHeader(http.StatusOK)
	w.metrics.write(rw)
}

func (w *Worker) handleRun(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeJSON(rw, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	// The coordinator's trace chain ("<root>/<shard-seq>"); every log
	// record of this shard carries it so the two processes' logs join.
	log := w.log()
	if trace := req.Header.Get(obs.TraceHeader); trace != "" {
		log = log.With("trace", trace)
	}
	if w.Draining() {
		// 503, not 412: the shard is fine, this worker just won't take it.
		// The coordinator's retry path requeues it for the rest of the
		// fleet.
		writeJSON(rw, http.StatusServiceUnavailable, errorBody{Error: "worker is draining"})
		return
	}
	var rr RunRequest
	if err := readJSON(req.Body, &rr); err != nil {
		writeJSON(rw, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	// The version gate: serving a shard under a different ProtocolVersion
	// would merge results from a different timing model, job schema or
	// wire format into the coordinator's matrix. 412 tells the scheduler
	// to drop this worker, not retry it.
	if rr.Version != ProtocolVersion {
		log.Warn("refused shard: version mismatch", "coordinator", rr.Version, "worker", ProtocolVersion)
		writeJSON(rw, http.StatusPreconditionFailed, errorBody{
			Error: fmt.Sprintf("version mismatch: coordinator %s, worker %s", rr.Version, ProtocolVersion)})
		return
	}
	r := w.Runner
	if r == nil {
		r = &harness.Runner{}
	}
	log.Info("shard accepted", "jobs", len(rr.Jobs))
	w.metrics.shardStart(len(rr.Jobs))
	start := time.Now()
	// The request context cancels the shard when the coordinator hangs up
	// (timeout, abort): in-flight jobs finish, queued jobs are skipped.
	results, err := r.Run(req.Context(), rr.Jobs)
	w.metrics.shardEnd(len(rr.Jobs))
	if err != nil {
		log.Error("shard failed", "jobs", len(rr.Jobs), "err", err)
		writeJSON(rw, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	resp := RunResponse{Results: make([]JobResult, len(results))}
	for i, res := range results {
		resp.Results[i] = JobResult{Results: res.Results, Cached: res.Cached, Timing: res.Timing}
		w.metrics.observeJob(res)
	}
	log.Info("shard done", "jobs", len(rr.Jobs), "seconds", time.Since(start).Seconds())
	writeJSON(rw, http.StatusOK, resp)
}
