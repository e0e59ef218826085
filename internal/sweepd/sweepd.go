package sweepd

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vbi/internal/dist"
	"vbi/internal/harness"
	"vbi/internal/obs"
	"vbi/internal/system"
)

// Server is the sweep service: a durable, multi-sweep front-end over one
// worker fleet. Configure the exported fields, then Start (which replays
// the journal) and mount Handler on a listener. All fields are read-only
// after Start.
type Server struct {
	// Dir is the journal directory: one JSON record per sweep, written
	// atomically on submit and on every terminal transition. A restarted
	// daemon replays it — non-terminal sweeps are re-admitted and resume
	// from Cache; terminal ones stay queryable.
	Dir string
	// Cache is the shared on-disk result cache. Optional but strongly
	// recommended: it is what makes restart resumption incremental, and
	// remote shard results stream into it exactly like the coordinator's.
	Cache *harness.Cache
	// Fleet is the worker membership registry. The daemon mounts its
	// /register and /leave routes on the same listener as the API.
	Fleet *dist.Registry
	// AuthToken, when non-empty, gates every route and is sent on every
	// worker request.
	AuthToken string
	// ShardSize is the number of jobs per shard (<=0 = 4), the dispatch
	// and requeue granularity.
	ShardSize int
	// Timeout bounds one worker request (<=0 = 10m).
	Timeout time.Duration
	// Retries is how many consecutive failures drop a worker (<=0 = 2).
	Retries int
	// PollInterval is the membership poll cadence (<=0 = 250ms).
	PollInterval time.Duration
	// Logger, when non-nil, receives the daemon's structured activity
	// records. cmd/vbisweepd wires it to -log-format/-log-level; shard
	// dispatch records carry the scheduler's trace-ID chain.
	Logger *slog.Logger
	// Client, when non-nil, overrides the HTTP client used for worker
	// requests (TLS, tests).
	Client *http.Client

	mu      sync.Mutex
	sweeps  map[string]*sweep
	order   []string // submission order, for listings and resume
	sched   *dist.Scheduler
	metrics *metrics
	handler http.Handler
}

// sweep is one sweep's in-memory state. results/completed are positional
// over rec.Jobs, so merge order can never reorder the matrix.
type sweep struct {
	rec       record
	jobs      []harness.Job
	results   [][]system.RunResult
	completed []bool
	remaining int
	cached    int
	// batch is the sweep's remote work in the scheduler; nil until
	// admitted, and for sweeps loaded terminal.
	batch *dist.Batch
	// Observability accounting, accumulated from per-job timing records:
	// summed worker wall nanos (cache hits excluded), summed phase events,
	// and the remote-completion rate basis for throughput/ETA.
	simNanos    int64
	phases      obs.PhaseCounts
	remoteDone  int
	firstRemote time.Time
}

// record is the journal document: everything needed to resume (the
// canonical self-describing job list — specs ride inside the jobs — plus
// the grid for matrix labels) and, once terminal, everything needed to
// answer GET /sweeps/{id} forever (state, error, result table).
//
//vbi:wire
type record struct {
	// Version pins the harness schema the jobs were expanded under; a
	// journal from a different binary is refused at load (the same
	// never-mix-models stance as the wire protocol).
	Version     string          `json:"version"`
	ID          string          `json:"id"`
	Name        string          `json:"name,omitempty"`
	State       string          `json:"state"`
	Metric      string          `json:"metric"`
	SubmittedAt time.Time       `json:"submitted_at"`
	FinishedAt  time.Time       `json:"finished_at"`
	Error       string          `json:"error,omitempty"`
	Grid        harness.Grid    `json:"grid"`
	Jobs        []harness.Job   `json:"jobs"`
	Table       json.RawMessage `json:"table,omitempty"`
}

// terminal reports whether a state accepts no further work.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

func (s *Server) logf(format string, args ...any) {
	if s.Logger == nil {
		return
	}
	s.Logger.Info(fmt.Sprintf(format, args...))
}

// Start replays the journal and launches the scheduler. It returns after
// recovery; the scheduler runs until ctx (the daemon's lifetime) ends.
func (s *Server) Start(ctx context.Context) error {
	if s.Dir == "" {
		return fmt.Errorf("sweepd: Dir (journal directory) is required")
	}
	if s.Fleet == nil {
		return fmt.Errorf("sweepd: Fleet registry is required")
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("sweepd: journal dir: %w", err)
	}
	s.mu.Lock()
	s.sweeps = map[string]*sweep{}
	s.metrics = &metrics{}
	s.sched = (&dist.Coordinator{
		AuthToken:    s.AuthToken,
		ShardSize:    s.ShardSize,
		Timeout:      s.Timeout,
		Retries:      s.Retries,
		PollInterval: s.PollInterval,
		Logger:       s.Logger,
		Client:       s.Client,
	}).NewScheduler(s.Fleet)
	s.mu.Unlock()
	// Mounting the fleet routes marks the registry dynamic before the
	// scheduler's first poll, so a dry fleet is backpressure, not failure.
	mux := http.NewServeMux()
	mux.HandleFunc(PathSweeps, s.handleSweeps)
	mux.HandleFunc(PathSweeps+"/", s.handleSweep)
	mux.HandleFunc(PathStatus, s.handleStatus)
	mux.HandleFunc(PathMetrics, s.handleMetrics)
	s.Fleet.Mount(mux)
	s.handler = dist.RequireAuth(s.AuthToken, mux)
	if err := s.load(); err != nil {
		return err
	}
	go s.sched.Run(ctx)
	return nil
}

// load replays every journal record: terminal sweeps become queryable
// history, non-terminal ones are re-admitted (their completed jobs come
// straight back from Cache, so resumption costs only the cache reads).
func (s *Server) load() error {
	ents, err := os.ReadDir(s.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var recs []record
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".sweep.json") {
			continue
		}
		path := filepath.Join(s.Dir, de.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil || rec.ID == "" {
			s.logf("sweepd: skipping unreadable journal record %s: %v", de.Name(), err)
			continue
		}
		if rec.Version != harness.Version {
			// Jobs expanded under a different schema cannot be resumed (or
			// even re-expanded) by this binary; keep the file for the
			// operator, skip the sweep.
			s.logf("sweepd: skipping journal record %s: version %s, daemon runs %s", rec.ID, rec.Version, harness.Version)
			continue
		}
		// The id names the file every later write goes to: a mismatch would
		// fork the sweep into a second record, loaded twice on restart.
		if stem := strings.TrimSuffix(de.Name(), ".sweep.json"); rec.ID != stem {
			s.logf("sweepd: skipping journal record %s: id %q does not match the file name", de.Name(), rec.ID)
			continue
		}
		// Only a job's completion finalizes a sweep, so an active sweep
		// without jobs would stay queued forever.
		if !terminal(rec.State) && len(rec.Jobs) == 0 {
			s.logf("sweepd: skipping journal record %s: %s sweep has no jobs", de.Name(), rec.State)
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].SubmittedAt.Equal(recs[j].SubmittedAt) {
			return recs[i].SubmittedAt.Before(recs[j].SubmittedAt)
		}
		return recs[i].ID < recs[j].ID
	})
	for _, rec := range recs {
		sw := &sweep{
			rec:       rec,
			jobs:      rec.Jobs,
			results:   make([][]system.RunResult, len(rec.Jobs)),
			completed: make([]bool, len(rec.Jobs)),
			remaining: len(rec.Jobs),
		}
		s.mu.Lock()
		s.sweeps[rec.ID] = sw
		s.order = append(s.order, rec.ID)
		s.mu.Unlock()
		if terminal(rec.State) {
			continue
		}
		s.logf("sweepd: resuming sweep %s (%d jobs)", rec.ID, len(rec.Jobs))
		s.admit(sw)
	}
	return nil
}

// newID mints a sweep id: time-prefixed so listings sort naturally, with
// random bits so restarts and concurrent submits cannot collide.
func (s *Server) newID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("sweepd: generate id: %v", err))
	}
	return fmt.Sprintf("sw-%x-%s", time.Now().Unix(), hex.EncodeToString(b[:]))
}

// journalPath is the sweep's record file.
func (s *Server) journalPath(id string) string {
	return filepath.Join(s.Dir, id+".sweep.json")
}

// journal writes a sweep's record atomically (temp + rename, the cache's
// own durability idiom). Callers hold s.mu.
func (s *Server) journal(sw *sweep) error {
	b, err := json.MarshalIndent(sw.rec, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.Dir, ".journal-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), s.journalPath(sw.rec.ID))
}

// Submit expands, journals and schedules a sweep, returning its id and
// job count. It is the API core of POST /sweeps (exported for in-process
// use and tests).
func (s *Server) Submit(req SubmitRequest) (SubmitResponse, error) {
	metric := req.Metric
	if metric == "" {
		metric = harness.MetricIPC
	}
	if err := harness.ValidateMetric(metric); err != nil {
		return SubmitResponse{}, err
	}
	grid := req.Grid
	if grid.Refs == 0 && len(grid.RefsAxis) == 0 {
		grid.Refs = 100_000
	}
	jobs, err := grid.Jobs()
	if err != nil {
		return SubmitResponse{}, err
	}
	sw := &sweep{
		rec: record{
			Version:     harness.Version,
			ID:          s.newID(),
			Name:        req.Name,
			State:       StateQueued,
			Metric:      metric,
			SubmittedAt: time.Now().UTC(),
			Grid:        grid,
			Jobs:        jobs,
		},
		jobs:      jobs,
		results:   make([][]system.RunResult, len(jobs)),
		completed: make([]bool, len(jobs)),
		remaining: len(jobs),
	}
	s.mu.Lock()
	// Journal before admitting: once the submit returns, a kill -9 at any
	// instant must leave a record a restarted daemon resumes from.
	if err := s.journal(sw); err != nil {
		s.mu.Unlock()
		return SubmitResponse{}, fmt.Errorf("sweepd: journal: %w", err)
	}
	s.sweeps[sw.rec.ID] = sw
	s.order = append(s.order, sw.rec.ID)
	s.mu.Unlock()
	s.metrics.sweepEvent(StateQueued)
	s.logf("sweepd: accepted sweep %s (%q, %d jobs)", sw.rec.ID, req.Name, len(jobs))
	s.admit(sw)
	return SubmitResponse{ID: sw.rec.ID, Total: len(jobs), Version: dist.ProtocolVersion}, nil
}

// admit runs the cache pre-pass and submits the misses to the
// scheduler. Cache hits complete immediately — a fully warmed sweep
// finishes inside its own submit, and a restarted daemon re-completes
// previously finished jobs without any worker traffic.
func (s *Server) admit(sw *sweep) {
	var miss []int
	for i, j := range sw.jobs {
		if s.Cache != nil {
			if res, ok := s.Cache.Get(j); ok {
				// Same timing shape the harness gives cache hits: no wall
				// time, phases recovered from the stored counters.
				s.complete(sw.rec.ID, i, res, true,
					&obs.JobTiming{Cached: true, Phases: system.SumPhases(res)})
				continue
			}
		}
		miss = append(miss, i)
	}
	id := sw.rec.ID
	s.mu.Lock()
	defer s.mu.Unlock()
	// Under s.mu, so a cancel either sees the batch or stops it here.
	if !terminal(sw.rec.State) {
		sw.batch = s.sched.Submit(sw.jobs, miss, func(idx int, jr dist.JobResult) {
			s.complete(id, idx, jr.Results, false, jr.Timing)
		}, func(err error) {
			s.failSweep(id, err)
		})
	}
}

// complete records one finished job. Duplicate completions (a shard
// requeued past a slow worker that eventually answered) are ignored; the
// first result wins, and determinism makes the duplicates identical
// anyway. The last completion finalizes the sweep. timing, when non-nil,
// feeds the sweep's throughput/ETA and phase accounting — observability
// only, never part of the journaled result table.
func (s *Server) complete(sweepID string, idx int, results []system.RunResult, fromCache bool, timing *obs.JobTiming) {
	s.mu.Lock()
	sw, ok := s.sweeps[sweepID]
	if !ok || terminal(sw.rec.State) || sw.completed[idx] {
		s.mu.Unlock()
		return
	}
	sw.results[idx] = results
	sw.completed[idx] = true
	sw.remaining--
	if timing != nil {
		sw.phases = sw.phases.Add(timing.Phases)
		if !timing.Cached {
			sw.simNanos += timing.WallNanos
		}
	}
	if fromCache {
		sw.cached++
	} else {
		if sw.remoteDone == 0 {
			sw.firstRemote = time.Now()
		}
		sw.remoteDone++
	}
	if !fromCache && s.Cache != nil {
		// Stream remote results into the shared cache exactly like the
		// one-shot coordinator: this is what restart resumption reads.
		if err := s.Cache.Put(sw.jobs[idx], results); err != nil {
			s.logf("sweepd: cache put: %v", err)
		}
	}
	last := sw.remaining == 0
	if last {
		s.finalizeLocked(sw)
	}
	s.mu.Unlock()
	s.metrics.jobDone(fromCache)
}

// finalizeLocked renders the done sweep's matrix and journals the
// terminal record. Called with s.mu held, on the completion of the last
// job.
func (s *Server) finalizeLocked(sw *sweep) {
	results := make([]harness.Result, len(sw.jobs))
	for i, j := range sw.jobs {
		results[i] = harness.Result{Job: j, Results: sw.results[i]}
	}
	table, err := sw.rec.Grid.Matrix(results, sw.rec.Metric)
	if err != nil {
		s.failLocked(sw, fmt.Errorf("render matrix: %w", err))
		return
	}
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		s.failLocked(sw, fmt.Errorf("encode matrix: %w", err))
		return
	}
	sw.rec.State = StateDone
	sw.rec.FinishedAt = time.Now().UTC()
	sw.rec.Table = buf.Bytes()
	if err := s.journal(sw); err != nil {
		s.logf("sweepd: journal %s: %v", sw.rec.ID, err)
	}
	s.metrics.sweepEvent(StateDone)
	s.logf("sweepd: sweep %s done (%d jobs, %d from cache)", sw.rec.ID, len(sw.jobs), sw.cached)
}

// failSweep marks a sweep failed; the scheduler has already dropped its
// shards.
func (s *Server) failSweep(sweepID string, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sw, ok := s.sweeps[sweepID]; ok && !terminal(sw.rec.State) {
		s.failLocked(sw, cause)
	}
}

func (s *Server) failLocked(sw *sweep, cause error) {
	sw.rec.State = StateFailed
	sw.rec.Error = cause.Error()
	sw.rec.FinishedAt = time.Now().UTC()
	if err := s.journal(sw); err != nil {
		s.logf("sweepd: journal %s: %v", sw.rec.ID, err)
	}
	s.metrics.sweepEvent(StateFailed)
	s.logf("sweepd: sweep %s failed: %v", sw.rec.ID, cause)
}

// statusLocked derives a sweep's reported status. Active records persist
// as StateQueued; the running/queued distinction is display-only, derived
// from progress, so the journal never needs rewriting mid-sweep.
func (s *Server) statusLocked(sw *sweep) SweepStatus {
	_, inflight := s.sched.Pending(sw.batch)
	st := SweepStatus{
		ID:          sw.rec.ID,
		Name:        sw.rec.Name,
		State:       sw.rec.State,
		Metric:      sw.rec.Metric,
		Total:       len(sw.jobs),
		Completed:   len(sw.jobs) - sw.remaining,
		Cached:      sw.cached,
		InFlight:    inflight,
		SubmittedAt: sw.rec.SubmittedAt,
		FinishedAt:  sw.rec.FinishedAt,
		Error:       sw.rec.Error,
		SimSeconds:  float64(sw.simNanos) / 1e9,
	}
	if !sw.phases.IsZero() {
		p := sw.phases
		st.Phases = &p
	}
	if !terminal(st.State) {
		st.Queued = sw.remaining - inflight
		if st.Completed > 0 || st.InFlight > 0 {
			st.State = StateRunning
		} else {
			st.State = StateQueued
		}
		// Throughput from remote completions only: cache pre-pass hits
		// complete instantly and would wildly overstate the fleet's rate.
		if sw.remoteDone > 0 {
			if elapsed := time.Since(sw.firstRemote).Seconds(); elapsed > 0 {
				st.JobsPerSecond = float64(sw.remoteDone) / elapsed
				st.ETASeconds = float64(sw.remaining) / st.JobsPerSecond
			}
		}
	}
	return st
}

// Handler returns the daemon's full HTTP plane, built by Start: the
// sweep API, /status, /metrics, and the fleet membership routes, all
// behind the shared-token gate when AuthToken is set.
func (s *Server) Handler() http.Handler {
	return s.handler
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v)
}

func (s *Server) handleSweeps(rw http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodPost:
		var sr SubmitRequest
		if err := json.NewDecoder(req.Body).Decode(&sr); err != nil {
			writeJSON(rw, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request: %v", err)})
			return
		}
		if sr.Version != dist.ProtocolVersion {
			writeJSON(rw, http.StatusPreconditionFailed, errorBody{
				Error: fmt.Sprintf("version mismatch: client %s, daemon %s", sr.Version, dist.ProtocolVersion)})
			return
		}
		resp, err := s.Submit(sr)
		if err != nil {
			writeJSON(rw, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		writeJSON(rw, http.StatusOK, resp)
	case http.MethodGet:
		s.mu.Lock()
		out := ListResponse{Sweeps: []SweepStatus{}}
		for _, id := range s.order {
			out.Sweeps = append(out.Sweeps, s.statusLocked(s.sweeps[id]))
		}
		s.mu.Unlock()
		writeJSON(rw, http.StatusOK, out)
	default:
		writeJSON(rw, http.StatusMethodNotAllowed, errorBody{Error: "POST or GET only"})
	}
}

func (s *Server) handleSweep(rw http.ResponseWriter, req *http.Request) {
	id := strings.TrimPrefix(req.URL.Path, PathSweeps+"/")
	if id == "" || strings.Contains(id, "/") {
		writeJSON(rw, http.StatusNotFound, errorBody{Error: "want /sweeps/{id}"})
		return
	}
	switch req.Method {
	case http.MethodGet:
		s.mu.Lock()
		sw, ok := s.sweeps[id]
		if !ok {
			s.mu.Unlock()
			writeJSON(rw, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown sweep %q", id)})
			return
		}
		resp := SweepResponse{SweepStatus: s.statusLocked(sw), Table: sw.rec.Table}
		s.mu.Unlock()
		writeJSON(rw, http.StatusOK, resp)
	case http.MethodDelete:
		st, ok := s.cancel(id)
		if !ok {
			writeJSON(rw, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown sweep %q", id)})
			return
		}
		writeJSON(rw, http.StatusOK, st)
	default:
		writeJSON(rw, http.StatusMethodNotAllowed, errorBody{Error: "GET or DELETE only"})
	}
}

// cancel implements DELETE /sweeps/{id}: an active sweep is cancelled
// (queued shards dropped, in-flight results discarded on arrival, the
// terminal record journaled); a terminal sweep is forgotten entirely —
// record file included — which is how operators clean up history.
func (s *Server) cancel(id string) (SweepStatus, bool) {
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	if !ok {
		s.mu.Unlock()
		return SweepStatus{}, false
	}
	if terminal(sw.rec.State) {
		delete(s.sweeps, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		st := s.statusLocked(sw)
		if err := os.Remove(s.journalPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.logf("sweepd: remove journal %s: %v", id, err)
		}
		s.mu.Unlock()
		s.logf("sweepd: forgot terminal sweep %s", id)
		return st, true
	}
	sw.rec.State = StateCancelled
	sw.rec.FinishedAt = time.Now().UTC()
	if err := s.journal(sw); err != nil {
		s.logf("sweepd: journal %s: %v", id, err)
	}
	st, b := s.statusLocked(sw), sw.batch
	s.mu.Unlock()
	s.sched.Cancel(b)
	s.metrics.sweepEvent(StateCancelled)
	s.logf("sweepd: cancelled sweep %s", id)
	return st, true
}

func (s *Server) handleStatus(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeJSON(rw, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	resp := StatusResponse{
		Service: "vbisweepd",
		Version: dist.ProtocolVersion,
		Fleet:   s.Fleet.Snapshot(),
		Sweeps:  []SweepStatus{},
		Latency: latency(s.sched.Workers()),
	}
	s.mu.Lock()
	for _, id := range s.order {
		resp.Sweeps = append(resp.Sweeps, s.statusLocked(s.sweeps[id]))
	}
	s.mu.Unlock()
	writeJSON(rw, http.StatusOK, resp)
}

func (s *Server) handleMetrics(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeJSON(rw, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	g := gauges{
		sweepStates:   map[string]int{},
		queueDepths:   map[string]int{},
		jobsPerSecond: map[string]float64{},
		etaSeconds:    map[string]float64{},
	}
	for _, m := range s.Fleet.Snapshot() {
		if m.Quarantined {
			g.quarantined++
		} else {
			g.workers++
		}
	}
	s.mu.Lock()
	for _, id := range s.order {
		st := s.statusLocked(s.sweeps[id])
		g.sweepStates[st.State]++
		if !terminal(st.State) {
			g.queueDepths[id], _ = s.sched.Pending(s.sweeps[id].batch)
			g.jobsQueued += st.Queued
			g.jobsInFlight += st.InFlight
			if st.JobsPerSecond > 0 {
				g.jobsPerSecond[id] = st.JobsPerSecond
				g.etaSeconds[id] = st.ETASeconds
			}
		}
	}
	s.mu.Unlock()
	if s.Cache != nil {
		g.cacheHits, g.cacheMisses = s.Cache.Counters()
	}
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rw.WriteHeader(http.StatusOK)
	g.workerStats = s.sched.Workers()
	s.metrics.WriteMetrics(rw, g)
}
