// Package harness orchestrates experiment runs. It turns declarative Job
// specs — resolved system spec, parameter overlay, workload(s) or
// multiprogrammed bundle, reference count, seed, heterogeneous memory and
// placement policy — into simulations executed across a bounded worker
// pool, with results guaranteed identical to a serial run: every job owns
// its own system.Machine, and aggregation is positional, so the worker
// count only changes wall-clock time, never output.
//
// Jobs are self-describing: the fully resolved system.Spec travels inside
// the job (its canonical JSON, the dist wire, the cache key), so name
// resolution against the process-wide spec registry happens exactly once,
// where the job is constructed — a worker machine never consults its own
// registry and can therefore run variants registered only in the
// coordinator.
//
// The harness also provides an on-disk result cache (see Cache) keyed by a
// hash of the job spec, so re-running a sweep only simulates what changed,
// and grid-sweep expansion (see Grid) for design-space exploration over
// (system × workload × bundle × seed × parameter axes × refs × hetero
// policy). Execution sits behind the Executor seam: *Runner is the local
// worker pool, internal/dist's Coordinator shards batches across machines.
// internal/exp, cmd/vbibench and cmd/vbisweep all run on top of it;
// DESIGN.md describes the architecture.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"vbi/internal/obs"
	"vbi/internal/system"
	"vbi/internal/trace"
	"vbi/internal/workloads"
)

// Job declares one simulation. The zero values of the optional fields take
// the system package's defaults, exactly as a direct system.New call
// would. Jobs are plain data: they marshal to canonical JSON, which is
// what the result cache hashes.
//
//vbi:wire
type Job struct {
	// Spec is the fully resolved system configuration: a built-in base
	// kind plus a materialized parameter overlay. Resolve a registered
	// name once with system.ResolveSpec (or system.MustSpec) when
	// constructing the job; from then on the spec travels with the job —
	// canonical JSON, the dist wire, the cache key — and no process ever
	// re-resolves it against a local registry. Must be nil for
	// heterogeneous-memory jobs, which are always VBI-2 over two zones.
	Spec *system.Spec `json:"spec,omitempty"`
	// Workloads lists benchmark names: one element is a single-core run,
	// several are a multiprogrammed run with one core per workload.
	Workloads []string `json:"workloads"`
	// Refs is the measured reference count per core (0 = default).
	Refs int `json:"refs,omitempty"`
	// Warmup references before measurement (0 = Refs/2).
	Warmup int `json:"warmup,omitempty"`
	// Seed selects the trace streams (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// Capacity is the physical memory size (0 = default).
	Capacity uint64 `json:"capacity,omitempty"`
	// UniformTables forces fixed 4-level tables on VBI kinds (the §5.2
	// ablation).
	UniformTables bool `json:"uniform_tables,omitempty"`
	// Params overlays tunable hardware/OS knobs on top of the resolved
	// spec's parameters (the job wins field-by-field); zero fields keep
	// the spec's values, and the spec's zero fields keep Table 1 defaults.
	Params system.Params `json:"params,omitempty"`

	// HeteroMem, when non-empty ("PCM-DRAM" or "TL-DRAM"), selects a
	// heterogeneous-memory run under Policy ("Unaware", "VBI" or "IDEAL").
	HeteroMem string `json:"hetero_mem,omitempty"`
	Policy    string `json:"policy,omitempty"`
}

// Result pairs a job with the per-core results of its run.
type Result struct {
	Job     Job                `json:"job"`
	Results []system.RunResult `json:"results"`
	// Cached reports whether the run was served from the result cache.
	Cached bool `json:"-"`
	// Elapsed is the wall-clock simulation time of this job when it was
	// actually executed by the local pool (zero for cache hits and for
	// results that crossed the dist wire). Excluded from JSON like Cached:
	// it is measurement metadata, not part of the deterministic payload.
	Elapsed time.Duration `json:"-"`
	// Timing is the job's full measurement record: wall time, queue wait,
	// cache-hit flag and the per-phase event breakdown. Unlike Elapsed it
	// survives the dist wire (JobResult carries it beside the results), so
	// a coordinator sees where remote time went. Excluded from JSON for
	// the same reason as Cached and Elapsed: the deterministic result
	// payload — and therefore every cache entry and rendered matrix — must
	// be byte-identical whether or not anyone timed the run.
	Timing *obs.JobTiming `json:"-"`
}

// Validate checks the job without running it.
func (j Job) Validate() error {
	if len(j.Workloads) == 0 {
		return fmt.Errorf("harness: job has no workloads")
	}
	for _, w := range j.Workloads {
		if _, err := workloads.Get(w); err != nil {
			return err
		}
	}
	if err := j.Params.Validate(); err != nil {
		return err
	}
	if j.HeteroMem != "" {
		if j.Spec != nil {
			return fmt.Errorf("harness: heterogeneous jobs are always VBI-2; Spec %q conflicts with HeteroMem %q",
				j.Spec.Name, j.HeteroMem)
		}
		if len(j.Workloads) != 1 {
			return fmt.Errorf("harness: heterogeneous jobs are single-core")
		}
		if _, err := system.ParseHeteroMem(j.HeteroMem); err != nil {
			return err
		}
		if _, err := system.ParsePolicy(j.Policy); err != nil {
			return err
		}
		return nil
	}
	if j.Spec == nil {
		return fmt.Errorf("harness: job has no system spec (resolve a name with system.ResolveSpec)")
	}
	if err := j.Spec.Validate(); err != nil {
		return err
	}
	return system.Overlay(j.Spec.Params, j.Params).Validate()
}

// Describe returns a short label for progress lines and listings.
// Single-core jobs read "spec/app"; multiprogrammed bundles read
// "app1+app2@spec", so a bundle row is distinguishable at a glance.
func (j Job) Describe() string {
	apps := strings.Join(j.Workloads, "+")
	name := ""
	if j.Spec != nil {
		name = j.Spec.Name
	}
	if j.HeteroMem != "" {
		name = fmt.Sprintf("%s/%s", j.HeteroMem, j.Policy)
	} else if j.UniformTables {
		name += "(uniform)"
	}
	if !j.Params.IsZero() {
		name = fmt.Sprintf("%s[%s]", name, j.Params)
	}
	out := fmt.Sprintf("%s/%s", name, apps)
	if len(j.Workloads) > 1 {
		out = fmt.Sprintf("%s@%s", apps, name)
	}
	return out
}

// run executes the job on a freshly built machine. It is the one place
// that chooses between system.New, system.NewMulticore and
// system.NewHetero; vbisim, the figures and the sweeps all run through it.
func (j Job) run() ([]system.RunResult, error) {
	var m *system.Machine
	if j.HeteroMem != "" {
		mem, err := system.ParseHeteroMem(j.HeteroMem)
		if err != nil {
			return nil, err
		}
		pol, err := system.ParsePolicy(j.Policy)
		if err != nil {
			return nil, err
		}
		if m, err = system.NewHetero(system.HeteroConfig{
			Mem: mem, Policy: pol, Refs: j.Refs, Warmup: j.Warmup,
			Seed: j.Seed, Params: j.Params}, workloads.MustGet(j.Workloads[0])); err != nil {
			return nil, err
		}
	} else {
		cfg, err := j.Spec.Config()
		if err != nil {
			return nil, err
		}
		cfg.Refs, cfg.Warmup, cfg.Seed = j.Refs, j.Warmup, j.Seed
		cfg.Capacity, cfg.UniformTables = j.Capacity, j.UniformTables
		cfg.Params = system.Overlay(cfg.Params, j.Params)
		if len(j.Workloads) > 1 {
			var profs []trace.Profile
			for _, w := range j.Workloads {
				profs = append(profs, workloads.MustGet(w))
			}
			mc, err := system.NewMulticore(cfg, profs)
			if err != nil {
				return nil, err
			}
			return mc.Run()
		}
		if m, err = system.New(cfg, workloads.MustGet(j.Workloads[0])); err != nil {
			return nil, err
		}
	}
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	return []system.RunResult{res}, nil
}

// Executor runs batches of jobs. It is the seam between sweep front-ends
// and execution backends: *Runner executes on the local worker pool,
// dist.Coordinator shards the batch across remote vbiworker daemons.
// Every implementation returns one Result per job, in job order, with
// output independent of how the batch was scheduled.
type Executor interface {
	Run(ctx context.Context, jobs []Job) ([]Result, error)
}

// Runner executes batches of jobs over a worker pool.
type Runner struct {
	// Workers bounds concurrent simulations (<=0 = GOMAXPROCS).
	Workers int
	// Cache, when non-nil, serves unchanged jobs from disk and stores new
	// results.
	Cache *Cache
	// Progress, when non-nil, receives one line per completed job.
	Progress io.Writer

	mu sync.Mutex // guards Progress
}

func (r *Runner) logf(format string, args ...any) {
	if r.Progress == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.Progress, format+"\n", args...)
}

var _ Executor = (*Runner)(nil)

// Run executes the jobs and returns one Result per job, in job order.
// Execution order is unspecified (bounded by Workers), but because every
// job builds its own machine and results are stored positionally, the
// output is identical for any worker count. The first job error aborts the
// batch. Cancelling ctx stops the batch at job granularity: in-flight
// simulations run to completion (and still land in the cache), queued jobs
// are never started, and Run returns ctx.Err().
func (r *Runner) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("job %d (%s): %w", i, j.Describe(), err)
		}
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if len(jobs) == 0 {
		return nil, nil
	}

	results := make([]Result, len(jobs))
	idx := make(chan int)
	stop := make(chan struct{})
	errs := make(chan error, 1)
	var stopOnce sync.Once
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
		stopOnce.Do(func() { close(stop) })
	}
	// Every job's queue wait is measured against the batch start: how
	// long it sat behind the pool before its own simulation began.
	batchStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err := r.runOne(jobs[i], batchStart)
				if err != nil {
					fail(fmt.Errorf("job %d (%s): %w", i, jobs[i].Describe(), err))
					return
				}
				results[i] = res
			}
		}()
	}
feed:
	for i := range jobs {
		// Checked before the select too: when both a worker and Done are
		// ready the select picks randomly, and a cancelled batch must not
		// keep feeding.
		if err := ctx.Err(); err != nil {
			fail(err)
			break feed
		}
		select {
		case idx <- i:
		case <-stop:
			break feed
		case <-ctx.Done():
			fail(ctx.Err())
			break feed
		}
	}
	close(idx)
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	return results, nil
}

// runOne serves one job from cache or simulation, wrapping the run in
// an obs.Timer so every result carries its measurement record.
func (r *Runner) runOne(j Job, queuedAt time.Time) (Result, error) {
	if r.Cache != nil {
		if res, ok := r.Cache.Get(j); ok {
			r.logf("  [cache] %s", j.Describe())
			// A hit costs no simulation time, but its phase counters are
			// part of the cached result and still attribute the work.
			return Result{Job: j, Results: res, Cached: true,
				Timing: &obs.JobTiming{Cached: true, Phases: system.SumPhases(res)}}, nil
		}
	}
	t := obs.StartTimer(queuedAt)
	res, err := j.run()
	if err != nil {
		return Result{}, err
	}
	elapsed, queued := t.Stop()
	if r.Cache != nil {
		if err := r.Cache.Put(j, res); err != nil {
			return Result{}, fmt.Errorf("cache put: %w", err)
		}
	}
	r.logf("  %-34s IPC=%.4f DRAM=%d", j.Describe(), res[0].IPC, res[0].DRAMAccesses)
	timing := &obs.JobTiming{
		WallNanos:  elapsed.Nanoseconds(),
		QueueNanos: queued.Nanoseconds(),
		Phases:     system.SumPhases(res),
	}
	return Result{Job: j, Results: res, Elapsed: elapsed, Timing: timing}, nil
}
