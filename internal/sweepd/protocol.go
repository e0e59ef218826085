// Package sweepd is the long-running sweep service: a daemon
// (cmd/vbisweepd) that accepts many sweeps over a JSON HTTP API, journals
// them durably, schedules their shards fairly across one dynamic worker
// fleet (internal/dist), and exposes the whole plane's health as
// Prometheus-style metrics.
//
// dist.Coordinator and a sweepd Server dispatch through the same
// dist.Scheduler. Where the coordinator submits exactly one sweep and
// dies with its process, a sweepd Server keeps its scheduler for its
// lifetime and owns a persistent queue: every submitted sweep is
// journaled to disk as its canonical self-describing harness.Job list
// before the submit returns, so a daemon killed mid-sweep reloads its
// queue on restart and — because completed shards stream into the shared
// on-disk result cache — resumes exactly where it stopped, with final
// matrices byte-identical to a serial local run.
//
// Scheduling is fair across sweeps: the shard queue round-robins one
// shard per active sweep per pull, so a small sweep submitted behind a
// huge one starts completing immediately instead of waiting out the
// backlog. A fleet running dry is backpressure, not failure — shards
// queue until a worker joins.
package sweepd

import (
	"encoding/json"
	"time"

	"vbi/internal/dist"
	"vbi/internal/harness"
	"vbi/internal/obs"
)

// URL paths of the sweep service API. The daemon additionally serves the
// fleet-membership routes (dist.PathRegister, dist.PathLeave) on the same
// listener, so one address is the whole control plane.
const (
	// PathSweeps accepts POST (submit) and GET (list); PathSweeps/{id}
	// accepts GET (status + result) and DELETE (cancel).
	PathSweeps = "/sweeps"
	// PathStatus serves the human JSON plane: fleet membership plus every
	// sweep's progress.
	PathStatus = "/status"
	// PathMetrics serves the Prometheus text exposition: queue depths,
	// per-worker dispatch/failure counters, cache hit/miss, fleet size.
	PathMetrics = "/metrics"
)

// Sweep states. A sweep is terminal in StateDone, StateFailed or
// StateCancelled; terminal records stay loadable (and GET-able) across
// daemon restarts until deleted.
const (
	// StateQueued: admitted, no shard dispatched or completed yet (a dry
	// fleet holds sweeps here — backpressure, not failure).
	StateQueued = "queued"
	// StateRunning: at least one job completed or in flight.
	StateRunning = "running"
	// StateDone: every job completed; Table holds the result matrix.
	StateDone = "done"
	// StateFailed: a shard exhausted its attempts (e.g. a job that every
	// worker rejects); Error holds the last failure.
	StateFailed = "failed"
	// StateCancelled: deleted by the client while active.
	StateCancelled = "cancelled"
)

// SubmitRequest is the body of POST /sweeps. The grid is expanded
// server-side into self-describing jobs (grids are self-contained: inline
// variant specs travel in the grid itself), journaled, and scheduled.
//
//vbi:wire
type SubmitRequest struct {
	// Version must equal the daemon's dist.ProtocolVersion: a submit from
	// a binary with a different timing model or wire format is refused
	// with 412, the same never-mix-models stance as the worker protocol.
	Version string `json:"version"`
	// Name is an optional human label echoed in listings.
	Name string `json:"name,omitempty"`
	// Grid is the sweep definition, exactly the shape vbisweep -config
	// takes.
	Grid harness.Grid `json:"grid"`
	// Metric selects the matrix metric (default harness.MetricIPC).
	Metric string `json:"metric,omitempty"`
}

// SubmitResponse answers a successful submit.
//
//vbi:wire
type SubmitResponse struct {
	// ID names the sweep for GET/DELETE and vbisweep -watch/-cancel.
	ID string `json:"id"`
	// Total is the expanded job count.
	Total int `json:"total"`
	// Version is the daemon's dist.ProtocolVersion.
	Version string `json:"version"`
}

// SweepStatus is one sweep's progress as the API reports it.
//
//vbi:wire
type SweepStatus struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	State  string `json:"state"`
	Metric string `json:"metric"`
	// Total / Completed / Cached / InFlight / Queued account every job:
	// Cached counts the completions served from the shared result cache,
	// Queued the jobs still waiting for a worker.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Cached    int `json:"cached"`
	InFlight  int `json:"in_flight"`
	Queued    int `json:"queued"`

	SubmittedAt time.Time `json:"submitted_at"`
	// FinishedAt is zero while the sweep is active.
	FinishedAt time.Time `json:"finished_at"`
	// Error is the failure reason for StateFailed.
	Error string `json:"error,omitempty"`

	// Observability fields, derived from per-job timing records (wire3).
	// JobsPerSecond is the fleet's remote completion rate for this sweep
	// (cache pre-pass hits excluded) and ETASeconds the projected time to
	// drain the remaining jobs at that rate; both are zero until the first
	// remote completion and absent on terminal sweeps.
	JobsPerSecond float64 `json:"jobs_per_second,omitempty"`
	ETASeconds    float64 `json:"eta_seconds,omitempty"`
	// SimSeconds is the summed worker wall-clock across this sweep's
	// simulated (non-cached) jobs — the compute the sweep actually bought.
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	// Phases is the summed per-phase event breakdown (TLB, PWC, walk,
	// cache, DRAM) across completed jobs, cached ones included.
	Phases *obs.PhaseCounts `json:"phases,omitempty"`
}

// WorkerLatency is one worker's shard-latency summary in StatusResponse:
// quantile estimates from the daemon's per-worker shard-seconds
// histogram.
//
//vbi:wire
type WorkerLatency struct {
	Worker string `json:"worker"`
	// Count is the number of completed shard requests observed.
	Count uint64 `json:"count"`
	// P50/P90/P99 are estimated shard round-trip seconds.
	P50Seconds float64 `json:"p50_seconds"`
	P90Seconds float64 `json:"p90_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// SweepResponse answers GET /sweeps/{id}: the status plus, for a done
// sweep, the rendered result matrix — the same stats.Table JSON document
// `vbisweep -json` writes, byte for byte, so clients can compare daemon
// results against local runs directly.
//
//vbi:wire
type SweepResponse struct {
	SweepStatus
	Table json.RawMessage `json:"table,omitempty"`
}

// ListResponse answers GET /sweeps, in submission order.
//
//vbi:wire
type ListResponse struct {
	Sweeps []SweepStatus `json:"sweeps"`
}

// StatusResponse answers GET /status: the human-readable JSON plane.
//
//vbi:wire
type StatusResponse struct {
	Service string `json:"service"` // always "vbisweepd"
	Version string `json:"version"` // the daemon's dist.ProtocolVersion
	// Fleet is the current membership table, quarantined members included.
	Fleet []dist.MemberInfo `json:"fleet"`
	// Sweeps lists every known sweep's progress, submission order.
	Sweeps []SweepStatus `json:"sweeps"`
	// Latency is each worker's shard round-trip summary, sorted by worker
	// ID; empty until a shard completes.
	Latency []WorkerLatency `json:"latency,omitempty"`
}

// errorBody is the JSON body of every non-200 response.
//
//vbi:wire
type errorBody struct {
	Error string `json:"error"`
}
