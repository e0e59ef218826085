// Package obs is the repo's observability layer: per-job timing
// (Timer/JobTiming), fixed-bucket latency histograms with deterministic
// Prometheus rendering (Histogram, WriteFamily), shared structured-log
// setup over log/slog (LogOptions), trace-ID minting/chaining for
// cross-process request correlation, and pprof capture around figure
// runs (Profiles).
//
// It is stdlib-only and imports nothing else from this module, so every
// tier — sim core, harness, dist plane, daemons, CLIs — can depend on it
// without cycles. Timing and trace data ride *beside* results, never
// inside them: harness.Result excludes Timing from JSON, and the dist
// wire carries JobTiming in a separate field, so cached result bytes and
// rendered matrices stay byte-identical whether or not anyone is
// watching.
//
// The trace-ID chain is "<root>/<shard-seq>": the root names one
// coordinator run, minted with NewTraceID;
// each dispatched shard appends its sequence number with ChildID. The
// chain travels coordinator→worker in the TraceHeader HTTP header and
// appears as the "trace" attribute in both sides' structured logs, so
// one grep follows a shard across machines. DESIGN.md §8 documents the
// format and the metric families.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
)

// TraceHeader is the HTTP header carrying the trace-ID chain on every
// shard request (dist.ExecuteShard sets it, the worker logs it).
const TraceHeader = "X-VBI-Trace"

// NewTraceID mints a root trace ID: "t-" plus 8 random hex digits.
// Collisions across concurrent runs are what the random bits prevent;
// the ID carries no timestamp so minting stays deterministic-friendly
// (nothing downstream may branch on it).
func NewTraceID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; ids are
		// best-effort observability, so fall back to a fixed marker
		// rather than taking the run down.
		return "t-00000000"
	}
	return "t-" + hex.EncodeToString(b[:])
}

// ChildID appends one link to a trace chain: "<parent>/<seq>". The
// coordinator numbers shards with it; a deeper chain (sweep/shard/job)
// just applies it again.
func ChildID(parent string, seq int64) string {
	return fmt.Sprintf("%s/%d", parent, seq)
}
