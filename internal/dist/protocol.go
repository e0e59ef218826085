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
//     mismatch when the -remote list is probed (AddRemote) aborts the
//     run, and a worker that refuses a /run (412) is dropped from the
//     fleet, so a stale worker binary can never contribute results from
//     a different timing model, job schema or wire format.
//
// The fleet is the -remote list: every endpoint that passes the /healthz
// handshake serves the run, and nothing joins while it runs. Failure
// handling is shard-granular: a failed or timed-out request requeues its
// shard for the surviving endpoints, and completed shards stream into
// the coordinator's on-disk cache as they arrive, so even an aborted
// sweep resumes incrementally, on whichever workers are up then.
package dist

import (
	"encoding/json"
	"fmt"
	"io"

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
// model + job schema) plus a wire revision. Every handshake and run
// request carries it, and a mismatch on either side is fatal —
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

// URL paths of the worker protocol. When a shared auth token is
// configured, every route requires it (Authorization: Bearer <token>).
const (
	PathHealthz = "/healthz"
	PathRun     = "/run"
	// PathMetrics is the worker's Prometheus text exposition: jobs run,
	// per-phase event counters, job-latency histogram, in-flight gauge.
	PathMetrics = "/metrics"
)

// Hello is the handshake response served on /healthz. AddRemote refuses
// endpoints whose Version differs from its own ProtocolVersion and uses
// Workers as the shard-planning weight.
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

// errorBody is the JSON body of every non-200 worker response.
//
//vbi:wire
type errorBody struct {
	Error string `json:"error"`
}

// readJSON reads r to its end and decodes it as one JSON document into v.
// Unlike json.Decoder.Decode, it rejects anything but whitespace after
// the document, so a body with trailing bytes is malformed instead of
// read up to its first value.
func readJSON(r io.Reader, v any) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
