package system

import (
	"fmt"

	"vbi/internal/cache"
	"vbi/internal/cpu"
	"vbi/internal/dram"
	"vbi/internal/stats"
	"vbi/internal/trace"
)

// RunResult reports one core's measured phase. It is the payload of the
// harness result cache and the dist wire (JobResult), so the json tags
// pin today's field names: a rename must never silently change cache
// entries or wire shape.
//
//vbi:wire
type RunResult struct {
	System   string `json:"System"`
	Workload string `json:"Workload"`

	Cycles  uint64  `json:"Cycles"`
	Instrs  uint64  `json:"Instrs"`
	MemRefs uint64  `json:"MemRefs"`
	IPC     float64 `json:"IPC"`

	// DRAMAccesses counts reads+writes during the measured phase
	// (including translation-structure traffic), the metric behind the
	// paper's "reduces the total number of DRAM accesses" claims.
	DRAMAccesses uint64 `json:"DRAMAccesses"`

	// Extra carries system-specific counters (TLB misses, walks, zero
	// lines, faults, ...).
	Extra stats.Counters `json:"Extra"`
}

// coreRunner is one simulated hardware context; multicore runs interleave
// several over shared structures.
type coreRunner interface {
	// step simulates one memory reference.
	step() error
	// now returns the core's current cycle (for time-ordered
	// interleaving).
	now() uint64
	// beginMeasurement snapshots counters at the warmup boundary.
	beginMeasurement()
	// result finalizes the measured phase.
	result() RunResult
}

// Machine is a runnable single-core system.
type Machine struct {
	name   string
	cfg    Config
	runner coreRunner
}

// Name returns the configuration name.
func (m *Machine) Name() string { return m.name }

// Run executes warmup + measured references and returns the result.
//
//vbi:hotpath
func (m *Machine) Run() (RunResult, error) {
	for i := 0; i < m.cfg.Warmup; i++ {
		//vbi:allow hotalloc coreRunner dispatch is the one deliberate dynamic call per step; the runners themselves are devirtualized internally
		if err := m.runner.step(); err != nil {
			//vbi:allow hotalloc error path only; a failed step aborts the run
			return RunResult{}, fmt.Errorf("%s warmup: %w", m.name, err)
		}
	}
	//vbi:allow hotalloc once per run, outside the step loops
	m.runner.beginMeasurement()
	for i := 0; i < m.cfg.Refs; i++ {
		//vbi:allow hotalloc coreRunner dispatch is the one deliberate dynamic call per step; the runners themselves are devirtualized internally
		if err := m.runner.step(); err != nil {
			//vbi:allow hotalloc error path only; a failed step aborts the run
			return RunResult{}, fmt.Errorf("%s: %w", m.name, err)
		}
	}
	//vbi:allow hotalloc once per run, outside the step loops
	return m.runner.result(), nil
}

// coreKit bundles the per-core hardware every system shares: the timing
// core, private caches and the reference generator.
type coreKit struct {
	cpu  *cpu.Core
	hier *cache.Hierarchy
	gen  *trace.Generator
	prof trace.Profile
	mem  *dram.Memory
	// p holds the fully resolved parameters (no zero fields) the runner's
	// timing paths read.
	p Params

	// measurement snapshots
	startCycles uint64
	startInstrs uint64
	memRefs     uint64
	startRefs   uint64
	dramStart   dram.Stats
}

func newCoreKit(prof trace.Profile, seed uint64, p Params, mem *dram.Memory, llc *cache.Cache, shared *cache.Hierarchy) *coreKit {
	p = p.withDefaults()
	l1 := cache.New("L1", p.L1Size, p.L1Ways)
	l2 := cache.New("L2", p.L2Size, p.L2Ways)
	var hier *cache.Hierarchy
	if shared != nil {
		hier = shared.ShareLLC(l1, l2)
	} else {
		hier = cache.NewHierarchy(l1, l2, llc, cache.DefaultLatencies)
	}
	return &coreKit{
		cpu:  cpu.New(cpu.DefaultParams),
		hier: hier,
		gen:  trace.NewGenerator(prof, seed),
		prof: prof,
		mem:  mem,
		p:    p,
	}
}

func (k *coreKit) beginMeasurement() {
	k.startCycles = k.cpu.Finish()
	k.startInstrs = k.cpu.Instrs()
	k.startRefs = k.memRefs
	k.dramStart = k.mem.TotalStats()
}

func (k *coreKit) baseResult(system string) RunResult {
	cycles := k.cpu.Finish() - k.startCycles
	instrs := k.cpu.Instrs() - k.startInstrs
	d := k.mem.TotalStats()
	res := RunResult{
		System:       system,
		Workload:     k.prof.Name,
		Cycles:       cycles,
		Instrs:       instrs,
		MemRefs:      k.memRefs - k.startRefs,
		DRAMAccesses: d.Reads + d.Writes - k.dramStart.Reads - k.dramStart.Writes,
		Extra:        stats.Counters{},
	}
	if cycles > 0 {
		res.IPC = float64(instrs) / float64(cycles)
	}
	return res
}

// fillAndDrain installs a line fetched from memory and schedules the dirty
// writebacks the fills displaced (off the critical path, but occupying
// banks). Physical-cache systems pass the physical line; virtual-cache
// systems pass the virtual line plus a translator for writeback targets.
func (k *coreKit) fillAndDrain(line uint64, write bool, at uint64, wbTarget func(uint64) (uint64, bool)) {
	wbs := k.hier.Fill(line, write)
	k.drainWritebacks(wbs, at, wbTarget)
}

func (k *coreKit) drainWritebacks(wbs []uint64, at uint64, wbTarget func(uint64) (uint64, bool)) {
	for _, wb := range wbs {
		pa := wb
		if wbTarget != nil {
			t, ok := wbTarget(wb)
			if !ok {
				continue
			}
			pa = t
		}
		k.mem.Access(pa, at, true)
	}
}
