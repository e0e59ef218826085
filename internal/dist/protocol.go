// Package dist shards harness job batches across machines. A
// Coordinator implements harness.Executor: each Run partitions its batch
// into shards and dispatches them over HTTP/JSON to Worker daemons
// (cmd/vbiworker), each of which wraps an ordinary local harness.Runner
// (own worker pool, own optional result cache).
//
// The design goal is the same determinism contract the local pool gives:
// a distributed run is byte-identical to a serial local run. Two
// mechanisms carry that guarantee across the network:
//
//   - Positional merge. Shards are sets of job indices; a shard's results
//     land at those indices in the output slice, so scheduling, worker
//     speed, retries and requeues cannot reorder anything.
//   - Version handshake. Workers advertise the ProtocolVersion baked into
//     their binary, and every /run request repeats the coordinator's. A
//     mismatch when -remote seeds the registry (Registry.AddRemote)
//     aborts the run, a stale join is refused, and a worker that refuses
//     a /run (412) is dropped from the fleet, so a stale worker binary
//     can never contribute results from a different timing model, job
//     schema or wire format.
//
// Failure handling is shard-granular: a failed or timed-out request
// requeues its shard for the surviving endpoints, and completed shards
// stream into the coordinator's on-disk cache as they arrive, so even an
// aborted sweep resumes incrementally.
package dist

import (
	"fmt"

	"vbi/internal/harness"
	"vbi/internal/obs"
	"vbi/internal/system"
)

// VersionLine is the canonical `-version` output every cmd/ binary
// prints: the wire protocol this build speaks and the harness schema
// its caches are keyed under. One helper so the six binaries cannot
// drift in format.
func VersionLine(tool string) string {
	return fmt.Sprintf("%s %s (harness %s)", tool, ProtocolVersion, harness.Version)
}

// ProtocolVersion names the dist wire format: the harness.Version (timing
// model + job schema) plus a wire revision. Every handshake, run request
// and registration carries it, and a mismatch on either side is fatal —
// the same "never mix models" stance as before, now also covering wire
// shape. wire2 made jobs self-describing (RunRequest jobs carry their
// fully resolved system.Spec, so a worker executes exactly the
// configuration the coordinator resolved and never consults its own
// spec registry); wire3 adds per-job timing to RunResponse: every
// JobResult carries an obs.JobTiming beside its results, so the
// coordinator sees where remote time went without the deterministic
// result payload changing by a byte; wire4 added a time-slice window and
// a bundle goroutine hint to the Job schema, and wire5 removes both
// again. A wire5 worker would ignore a wire4 coordinator's slice window
// and simulate the whole job, so the bump refuses mixed fleets at
// handshake instead.
const ProtocolVersion = harness.Version + "+wire5"

// URL paths of the fleet protocol. PathHealthz and PathRun are served by
// workers; PathRegister and PathLeave are served by the coordinator's
// fleet listener (vbisweep -fleet, vbibench -fleet). When a shared auth token
// is configured, every route on a gated server requires it
// (Authorization: Bearer <token>).
const (
	PathHealthz = "/healthz"
	PathRun     = "/run"
	// PathMetrics is the worker's Prometheus text exposition: jobs run,
	// per-phase event counters, job-latency histogram, in-flight gauge.
	PathMetrics  = "/metrics"
	PathRegister = "/register"
	// PathLeave is a draining worker's voluntary deregistration: the
	// member is removed at once instead of lingering until TTL eviction,
	// so the scheduler stops handing it shards immediately. Best-effort —
	// a worker that dies without leaving is still TTL-evicted.
	PathLeave = "/leave"
)

// Hello is the handshake response served on /healthz. Registry.AddRemote
// refuses endpoints whose Version differs from its own ProtocolVersion
// and uses Workers as the shard-planning weight.
//
//vbi:wire
type Hello struct {
	Service string `json:"service"` // always "vbiworker"
	Version string `json:"version"` // ProtocolVersion of the worker binary
	Workers int    `json:"workers"` // local pool width
	// Draining reports a worker winding down (SIGTERM received): it
	// finishes in-flight shards but refuses new ones, so AddRemote skips
	// it.
	Draining bool `json:"draining,omitempty"`
}

// RunRequest carries one shard: a batch of canonical harness job specs,
// each self-describing (the resolved system spec rides inside the job).
// Version must equal the worker's ProtocolVersion; it is re-checked on
// every request (not just the handshake) so a worker binary swapped
// mid-sweep cannot silently serve results from a different model.
//
//vbi:wire
type RunRequest struct {
	Version string        `json:"version"`
	Jobs    []harness.Job `json:"jobs"`
}

// JobResult is one job's result on the wire, positionally aligned with
// RunRequest.Jobs. (harness.Result repeats the job and strips the cached
// flag from JSON; the wire format is positional and keeps the flag so
// simulated-vs-cached accounting survives the hop.)
//
//vbi:wire
type JobResult struct {
	Results []system.RunResult `json:"results"`
	Cached  bool               `json:"cached"`
	// Timing is the job's measurement record on the worker (wall time,
	// queue wait, phase breakdown) — wire3's addition. It travels beside
	// Results, never inside them, so Results (what the coordinator caches
	// and renders) stays byte-identical to a serial local run.
	Timing *obs.JobTiming `json:"timing,omitempty"`
}

// RunResponse answers a RunRequest.
//
//vbi:wire
type RunResponse struct {
	Results []JobResult `json:"results"`
}

// RegisterRequest is a worker's join — and, repeated periodically, its
// heartbeat. Version must equal the coordinator's ProtocolVersion (a
// mismatch is refused with 412 so a stale binary fails at join time).
//
//vbi:wire
type RegisterRequest struct {
	Version string `json:"version"`
	// Workers is the advertised pool width (the shard-planning weight).
	Workers int `json:"workers"`
	// Addr is the address the worker serves /run on, as "host:port" or a
	// base URL. An empty or unspecified host is filled in from the
	// registering connection's source address.
	Addr string `json:"addr"`
	// Instance identifies this worker process lifetime (any random string
	// chosen at startup). A changed instance tells the coordinator the
	// worker restarted, which readmits it even when its previous
	// incarnation was dropped for failures.
	Instance string `json:"instance,omitempty"`
}

// RegisterResponse answers a RegisterRequest.
//
//vbi:wire
type RegisterResponse struct {
	Version string `json:"version"` // coordinator's ProtocolVersion
	// HeartbeatMillis is how often the coordinator expects the worker to
	// re-register; missing heartbeats for 3× this evicts the worker.
	HeartbeatMillis int64 `json:"heartbeat_millis"`
}

// errorBody is the JSON body of every non-200 worker response.
//
//vbi:wire
type errorBody struct {
	Error string `json:"error"`
}
