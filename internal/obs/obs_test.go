package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestJobTimingJSONPinned pins JobTiming's wire JSON byte-for-byte: it
// rides dist RunResponses under the protocol version, so any shape
// change must arrive together with a wire bump.
func TestJobTimingJSONPinned(t *testing.T) {
	timing := JobTiming{
		WallNanos:  1500,
		QueueNanos: 25,
		Cached:     true,
		Phases:     PhaseCounts{TLB: 1, PWC: 2, Walk: 3, Cache: 4, DRAM: 5},
	}
	b, err := json.Marshal(timing)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"wall_nanos":1500,"queue_nanos":25,"cached":true,"phases":{"tlb":1,"pwc":2,"walk":3,"cache":4,"dram":5}}`
	if string(b) != want {
		t.Fatalf("JobTiming JSON drifted:\n got %s\nwant %s", b, want)
	}
	// The omitempty fields must vanish for the common simulated case, so
	// the wire stays small across large sweeps.
	b, err = json.Marshal(JobTiming{WallNanos: 7})
	if err != nil {
		t.Fatal(err)
	}
	want = `{"wall_nanos":7,"phases":{"tlb":0,"pwc":0,"walk":0,"cache":0,"dram":0}}`
	if string(b) != want {
		t.Fatalf("zero-queue JobTiming JSON drifted:\n got %s\nwant %s", b, want)
	}
}

func TestPhaseCounts(t *testing.T) {
	a := PhaseCounts{TLB: 1, PWC: 2, Walk: 3, Cache: 4, DRAM: 5}
	b := PhaseCounts{TLB: 10, PWC: 20, Walk: 30, Cache: 40, DRAM: 50}
	sum := a.Add(b)
	if sum != (PhaseCounts{TLB: 11, PWC: 22, Walk: 33, Cache: 44, DRAM: 55}) {
		t.Fatalf("Add: got %+v", sum)
	}
	if !(PhaseCounts{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero misreports")
	}
	if got, want := a.String(), "tlb=1 pwc=2 walk=3 cache=4 dram=5"; got != want {
		t.Fatalf("String: got %q, want %q", got, want)
	}
}

// TestTimerAllocationFree proves the hot-path claim the hotalloc
// analyzer checks statically: starting and stopping a Timer allocates
// nothing.
func TestTimerAllocationFree(t *testing.T) {
	queued := time.Now()
	var sink time.Duration
	allocs := testing.AllocsPerRun(1000, func() {
		tm := StartTimer(queued)
		wall, queue := tm.Stop()
		sink = wall + queue
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("Timer start/stop allocates %v times per run; want 0", allocs)
	}
}

func TestTimerQueueWait(t *testing.T) {
	queued := time.Now().Add(-50 * time.Millisecond)
	tm := StartTimer(queued)
	wall, queue := tm.Stop()
	if queue < 40*time.Millisecond {
		t.Fatalf("queue wait %v, want >=40ms", queue)
	}
	if wall < 0 || wall > time.Second {
		t.Fatalf("implausible wall %v", wall)
	}
	// A zero queuedAt means "no queue": the wait must be exactly zero.
	if _, q := StartTimer(time.Time{}).Stop(); q != 0 {
		t.Fatalf("zero queuedAt produced queue wait %v", q)
	}
}

// TestHistogramObserveAllocationFree pins Observe as safe to call from
// dispatch paths.
func TestHistogramObserveAllocationFree(t *testing.T) {
	h := NewHistogram(LatencyBuckets()...)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.42) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %v times per run; want 0", allocs)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all land in the (1,2] bucket
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 150 {
		t.Fatalf("snapshot: count=%d sum=%v", s.Count, s.Sum)
	}
	// Every rank interpolates within (1,2].
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if v := s.Quantile(q); v <= 1 || v > 2 {
			t.Fatalf("q%v = %v, want in (1,2]", q, v)
		}
	}
	// Values past the last bound clamp to it.
	h2 := NewHistogram(1, 2)
	h2.Observe(100)
	if v := h2.Snapshot().Quantile(0.5); v != 2 {
		t.Fatalf("+Inf-bucket quantile = %v, want 2 (last finite bound)", v)
	}
	if v := (HistogramSnapshot{}).Quantile(0.5); v != 0 {
		t.Fatalf("empty quantile = %v, want 0", v)
	}
}

// TestHistogramRenderingDeterministic pins the exposition bytes: same
// observations (any order, any interleaving) render identically, bucket
// lines cumulative and in bound order with +Inf last.
func TestHistogramRenderingDeterministic(t *testing.T) {
	render := func(values []float64) string {
		h := NewHistogram(0.1, 1, 10)
		var wg sync.WaitGroup
		for _, v := range values {
			wg.Add(1)
			go func(v float64) { defer wg.Done(); h.Observe(v) }(v)
		}
		wg.Wait()
		var buf bytes.Buffer
		WriteHistogram(&buf, "x_seconds", "Test.", []Label{L("worker", "w1")}, h.Snapshot())
		return buf.String()
	}
	values := []float64{0.05, 0.5, 5, 50, 0.5}
	a := render(values)
	b := render([]float64{50, 0.5, 0.5, 5, 0.05}) // permuted
	if a != b {
		t.Fatalf("rendering depends on observation order:\n%s\nvs\n%s", a, b)
	}
	want := `# HELP x_seconds Test.
# TYPE x_seconds histogram
x_seconds_bucket{worker="w1",le="0.1"} 1
x_seconds_bucket{worker="w1",le="1"} 3
x_seconds_bucket{worker="w1",le="10"} 4
x_seconds_bucket{worker="w1",le="+Inf"} 5
x_seconds_sum{worker="w1"} 56.05
x_seconds_count{worker="w1"} 5
`
	if a != want {
		t.Fatalf("exposition drifted:\n got %q\nwant %q", a, want)
	}
}

func TestWriteFamily(t *testing.T) {
	samples := []Sample{
		S(int64(1), L("worker", "a")),
		S(int64(2), L("worker", "b")),
		S(3.5, L("worker", "c"), L("quantile", "0.5")),
	}
	var buf bytes.Buffer
	WriteFamily(&buf, "f_total", "Help text.", "counter", samples)
	want := `# HELP f_total Help text.
# TYPE f_total counter
f_total{worker="a"} 1
f_total{worker="b"} 2
f_total{worker="c",quantile="0.5"} 3.5
`
	if buf.String() != want {
		t.Fatalf("family drifted:\n got %q\nwant %q", buf.String(), want)
	}
}

func TestQuantileSamples(t *testing.T) {
	h := NewHistogram(1, 2)
	h.Observe(1.5)
	got := QuantileSamples(h.Snapshot(), []float64{0.5, 0.99}, L("worker", "w"))
	if len(got) != 2 {
		t.Fatalf("got %d samples", len(got))
	}
	if got[0].Labels[1] != (Label{Key: "quantile", Value: "0.5"}) {
		t.Fatalf("quantile label: %+v", got[0].Labels)
	}
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if !strings.HasPrefix(a, "t-") || len(a) != 10 {
		t.Fatalf("bad trace id %q", a)
	}
	if a == b {
		t.Fatalf("trace ids collide: %q", a)
	}
	if got, want := ChildID(a, 3), a+"/3"; got != want {
		t.Fatalf("ChildID: got %q, want %q", got, want)
	}
}

func TestLogOptions(t *testing.T) {
	var buf bytes.Buffer
	log, err := LogOptions{Format: "json", Level: "warn"}.New(&buf)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("dropped")
	log.Warn("kept", "trace", "t-1234/1")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not one JSON record: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "kept" || rec["trace"] != "t-1234/1" {
		t.Fatalf("record: %v", rec)
	}
	if _, err := (LogOptions{Format: "xml"}).New(&buf); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := (LogOptions{Level: "loud"}).New(&buf); err == nil {
		t.Fatal("bad level accepted")
	}
	// The zero value must work: it is what a daemon without log flags
	// passes.
	if _, err := (LogOptions{}).New(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	p, err := StartProfiles("cpu,heap,out=" + dir)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to write.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Fatalf("%s missing or empty (err=%v)", name, err)
		}
	}
	// Nil and empty-spec cases must be no-ops.
	if p, err := StartProfiles(""); err != nil || p != nil {
		t.Fatalf("empty spec: %v %v", p, err)
	}
	if err := (*Profiles)(nil).Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := StartProfiles("gpu"); err == nil {
		t.Fatal("bad spec accepted")
	}
	if _, err := StartProfiles("out=" + dir); err == nil {
		t.Fatal("profile-less spec accepted")
	}
}
