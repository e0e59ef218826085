package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"vbi/internal/system"
)

// Options controls one benchmark run of a workload.
type Options struct {
	Seed uint64
	// Seconds is the wall-clock budget for passes over the matrix. Another
	// pass starts only while the last one would still fit, and at least
	// one always runs. With Trace, the first half of the budget goes to
	// untraced passes and the second half to traced ones.
	Seconds float64
	// Trace adds passes under a CPU profile for the per-layer metrics.
	Trace bool
	// Digests holds the expected result digest of every run, by run name.
	// Nil checks only that every pass reproduces the first one.
	Digests map[string]string
}

// A Span is one timed interval of a benchmark run: the workload, a pass,
// one run of the matrix, or that run's setup (constructor) call, step (Run)
// call or calibration kernel. Times are offsets from the start of the
// benchmark.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory.
type tracer struct {
	t0    time.Time
	spans []Span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	return s.End - s.Start
}

// runRecord is one run of one pass.
type runRecord struct {
	job   *job
	setup time.Duration
	step  time.Duration
	// cal is the calibration kernel's mean time before the constructor
	// and after Run.
	cal time.Duration
	// mallocs is the heap-object allocation count inside the Run call.
	mallocs uint64
	// liveHeap is the live heap right after Run, machine included.
	liveHeap uint64
	results  []system.RunResult
	digest   string
	err      error
}

type passRecord struct {
	traced bool
	runs   []runRecord
}

// Result is everything one benchmark run measured.
type Result struct {
	Workload string
	Seed     uint64
	Spans    []Span
	// Digests maps each run name to the digest of its first pass.
	Digests   map[string]string
	Attempted int
	Failed    int
	// Errors describes each failed run.
	Errors []string
	// PeakRSSMB is the process's peak resident set (VmHWM), less the
	// calibration table.
	PeakRSSMB float64

	passes  []passRecord
	samples []profileSample
}

// Run measures one workload.
func Run(w Workload, o Options) (*Result, error) {
	jobs, err := w.jobs(w.Refs, o.Seed)
	if err != nil {
		return nil, err
	}
	cal, err := newCalTable()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	res := &Result{Workload: w.Name, Seed: o.Seed, Digests: map[string]string{}}
	runtime.GC()
	s := &benchRun{cal: cal, tracer: tracer{t0: time.Now()}}
	root := s.begin("workload "+w.Name, 0)

	budget := o.Seconds
	if o.Trace {
		budget /= 2
	}
	passes := func(traced bool, budget float64) {
		for {
			p0 := time.Now()
			res.passes = append(res.passes, s.pass(root, len(res.passes)+1, jobs, traced))
			if time.Since(s.t0).Seconds()+time.Since(p0).Seconds() > budget {
				return
			}
		}
	}
	passes(false, budget)
	if o.Trace {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("bench: start CPU profile: %w", err)
		}
		passes(true, o.Seconds)
		pprof.StopCPUProfile()
		if res.samples, err = decodeCPUProfile(buf.Bytes()); err != nil {
			return nil, err
		}
	}
	s.end(root)
	res.Spans = s.spans

	for _, p := range res.passes {
		for _, r := range p.runs {
			res.Attempted++
			name := r.job.name
			if _, seen := res.Digests[name]; !seen {
				res.Digests[name] = r.digest
			}
			want, known := res.Digests[name], true
			if o.Digests != nil {
				want, known = o.Digests[name]
			}
			switch {
			case r.err != nil:
				res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", name, r.err))
			case !known:
				res.Errors = append(res.Errors, fmt.Sprintf("%s: no expected digest", name))
			case r.digest != want:
				res.Errors = append(res.Errors, fmt.Sprintf("%s: result digest %.12s, want %.12s", name, r.digest, want))
			default:
				continue
			}
			res.Failed++
		}
	}
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	res.PeakRSSMB -= calTableBytes >> 20
	return res, nil
}

// benchRun is one benchmark run in progress.
type benchRun struct {
	tracer
	cal *calTable
}

// pass runs the whole matrix once.
func (s *benchRun) pass(parent, n int, jobs []job, traced bool) passRecord {
	id := s.begin(fmt.Sprintf("pass %d", n), parent)
	p := passRecord{traced: traced, runs: make([]runRecord, len(jobs))}
	for i := range jobs {
		p.runs[i] = s.run(id, &jobs[i], traced)
	}
	s.end(id)
	return p
}

// run times one constructor call and one Run call, between two runs of
// the calibration kernel. A collection just before the constructor keeps
// runs from inheriting each other's GC debt. After Run, a second
// collection measures the machine's live heap before the kernel runs
// again. Each kernel thus runs with the collector idle: the second one
// right after a collection, the first after the previous run's (or Run's
// opening) collection and a few kilobytes of digest garbage. So the
// simulator's allocation rate does not slow the kernel and leak into the
// calibrated times.
func (s *benchRun) run(parent int, j *job, traced bool) runRecord {
	rec := runRecord{job: j}
	id := s.begin("run "+j.name, parent)
	defer s.end(id)
	rec.cal = s.calibrate(id)
	runtime.GC()

	var run func() ([]system.RunResult, error)
	sid := s.begin("setup", id)
	labelled(traced, "setup", j, func() { run, rec.err = j.setup() })
	rec.setup = s.end(sid)
	if rec.err != nil {
		return rec
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	sid = s.begin("step", id)
	labelled(traced, "step", j, func() { rec.results, rec.err = run() })
	rec.step = s.end(sid)
	runtime.ReadMemStats(&ms)
	rec.mallocs = ms.Mallocs - before
	if rec.err != nil {
		return rec
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rec.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(run)
	rec.cal = (rec.cal + s.calibrate(id)) / 2

	b, err := json.Marshal(rec.results)
	if err != nil {
		rec.err = err
		return rec
	}
	sum := sha256.Sum256(b)
	rec.digest = hex.EncodeToString(sum[:])
	return rec
}

// calibrate runs the calibration kernel under a span.
func (s *benchRun) calibrate(parent int) time.Duration {
	id := s.begin("calibrate", parent)
	s.cal.run()
	return s.end(id)
}

// labelled runs f, under pprof labels naming the phase and run when the
// pass is traced.
func labelled(traced bool, phase string, j *job, f func()) {
	if !traced {
		f()
		return
	}
	kind := j.kind
	if kind == "" {
		kind = j.policy
	}
	pprof.Do(context.Background(), pprof.Labels("phase", phase, "kind", kind, "app", j.app), func(context.Context) { f() })
}
