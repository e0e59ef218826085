package system

import (
	"fmt"

	"vbi/internal/cache"
	"vbi/internal/cpu"
	"vbi/internal/dram"
	"vbi/internal/enigma"
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

// Machine is a runnable simulated system: one core, or several (see
// Multicore) over a shared LLC, main memory and OS/MTL, all stepped by one
// loop. New, NewMulticore and NewHetero build it.
type Machine struct {
	cfg     Config
	runners []*runner
	// steps counts each core's references in the current run. It is
	// allocated at construction so that Run allocates nothing for it.
	steps []int
	// mig is a heterogeneous-memory machine's placement state (§7.3); nil
	// on every other machine.
	mig *migrator
}

// Run executes warmup + measured references and returns the result.
//
//vbi:hotpath
func (m *Machine) Run() (RunResult, error) {
	if err := m.run(); err != nil {
		return RunResult{}, err
	}
	return m.result(0), nil
}

// Multicore is a Machine with one core per workload (§7.2.3); its Run
// reports every core.
type Multicore Machine

// Run executes warmup + measured references on every core and returns
// their results in core order.
func (mc *Multicore) Run() ([]RunResult, error) {
	m := (*Machine)(mc)
	if err := m.run(); err != nil {
		return nil, err
	}
	out := make([]RunResult, len(m.runners))
	for i := range out {
		out[i] = m.result(i)
	}
	return out, nil
}

// run interleaves the cores in time order (the core with the smallest
// local clock steps next, so shared-bank and shared-LLC contention is
// simulated causally) until every core has retired Warmup+Refs
// references. A core's measurement snapshot is taken right after its
// Warmup-th step, or before any step when Warmup is 0: the snapshot reads
// the shared DRAM counters, which the other cores advance in between. A
// migrating hetero machine runs its epoch every HeteroEpochRefs steps.
//
//vbi:hotpath
func (m *Machine) run() error {
	runners, steps, mig := m.runners, m.steps, m.mig
	warmup, target := m.cfg.Warmup, m.cfg.Warmup+m.cfg.Refs
	clear(steps)
	if warmup == 0 {
		for _, r := range runners {
			r.beginMeasurement()
		}
	}
	for done := 0; done < len(runners); {
		best := -1
		var bestNow uint64
		for i, r := range runners {
			if steps[i] >= target {
				continue
			}
			if now := r.cpu.Now(); best == -1 || now < bestNow {
				best, bestNow = i, now
			}
		}
		r := runners[best]
		if err := r.step(); err != nil {
			//vbi:allow hotalloc error path only; a failed step aborts the run
			return fmt.Errorf("core %d (%s): %w", best, r.prof.Name, err)
		}
		steps[best]++
		n := steps[best]
		if n == warmup {
			r.beginMeasurement()
		}
		if mig != nil && mig.epoch > 0 && n%mig.epoch == 0 {
			mig.migrate(r)
		}
		if n == target {
			done++
		}
	}
	return nil
}

// result finalizes core i's measured phase.
func (m *Machine) result(i int) RunResult {
	res := m.runners[i].result()
	if m.mig != nil {
		res.System = m.mig.label
		res.Extra["migrated.bytes"] = m.mig.m.Stats.MigratedBytes
	}
	return res
}

// stage is where a kind translates, the one decision that separates the
// ten systems' access paths. access switches on it rather than calling
// through an interface, so the whole pipeline stays statically dispatched.
type stage uint8

const (
	// stagePhys translates before the caches, which hold physical lines
	// (Native, Native-2M, Virtual, Virtual-2M, Perfect TLB).
	stagePhys stage = iota
	// stageVIVT indexes and tags the caches virtually and translates at
	// the LLC boundary, overlapped with the LLC lookup.
	stageVIVT
	// stageEnigma caches intermediate addresses; the centralized
	// translation cache translates at the memory controller (§7.2.2).
	stageEnigma
	// stageVBI checks the CVT before the caches, which hold VBI addresses;
	// the MTL translates at the memory controller (§4.2.3).
	stageVBI
)

// runner is one simulated hardware context: the timing core, private
// caches and reference generator every system shares, plus the state of
// its kind's translation stage. Multicore runs interleave several over a
// shared LLC, memory and OS/MTL.
type runner struct {
	kind  Kind
	stage stage

	cpu  *cpu.Core
	hier *cache.Hierarchy
	gen  *trace.Generator
	prof trace.Profile
	mem  *dram.Memory
	// p holds the fully resolved parameters (no zero fields) the timing
	// paths read.
	p Params

	// Translation-stage state: only the runner's own stage's is set.
	// bases maps struct -> base address for every stage but VBI, which
	// places each structure in its own VB.
	bases []uint64
	convStage
	vbiStage
	eng *enigma.Enigma

	// latFn is the access callback handed to cpu.Step, bound once at
	// construction so the per-reference loop never allocates a closure;
	// stepErr carries the current step's access error out of it.
	latFn   cpu.LatencyFn
	stepErr error

	c counters
	s counters // snapshot at warmup boundary

	// measurement snapshots
	startCycles uint64
	startInstrs uint64
	memRefs     uint64
	startRefs   uint64
	dramStart   dram.Stats
}

// counters are the runner's event counts; each stage keeps its own subset.
type counters struct {
	// Conventional kinds; VBI reuses walkAccesses for MTL walk accesses
	// and faults for OS swap faults.
	tlbMisses    uint64
	walks        uint64
	walkAccesses uint64
	faults       uint64
	// VBI.
	cvtMisses    uint64
	translations uint64
	mtlTLBMisses uint64
	zeroLines    uint64
	regionAllocs uint64
	// Enigma.
	ctcMisses  uint64
	pageAllocs uint64
}

// newCore builds a runner's stage-independent hardware: private L1/L2
// over llc, or over the LLC of shared when another core built it first.
// The caller then sets up the kind's translation stage.
func newCore(kind Kind, prof trace.Profile, seed uint64, p Params, mem *dram.Memory, llc *cache.Cache, shared *cache.Hierarchy) *runner {
	p = p.withDefaults()
	l1 := cache.New("L1", p.L1Size, p.L1Ways)
	l2 := cache.New("L2", p.L2Size, p.L2Ways)
	var hier *cache.Hierarchy
	if shared != nil {
		hier = shared.ShareLLC(l1, l2)
	} else {
		hier = cache.NewHierarchy(l1, l2, llc, cache.DefaultLatencies)
	}
	r := &runner{
		kind: kind,
		cpu:  cpu.New(cpu.DefaultParams),
		hier: hier,
		gen:  trace.NewGenerator(prof, seed),
		prof: prof,
		mem:  mem,
		p:    p,
	}
	r.latFn = r.stepLatency
	return r
}

// step simulates one memory reference.
//
//vbi:hotpath
func (r *runner) step() error {
	ref := r.gen.Next()
	op := ref.Op
	if r.stage == stageVBI {
		op.Addr = packVAddr(r.chunkIdx[ref.StructIdx][ref.Offset>>r.chunkShift], ref.Offset&(1<<r.chunkShift-1))
	} else {
		op.Addr = r.bases[ref.StructIdx] + ref.Offset
	}
	r.stepErr = nil
	r.cpu.Step(op, r.latFn)
	r.memRefs++
	return r.stepErr
}

// stepLatency adapts access to cpu.LatencyFn, parking any access error in
// stepErr for step to return. It is bound to latFn once at construction:
// passing a method value per step would allocate a closure per reference.
//
//vbi:hotpath
func (r *runner) stepLatency(o cpu.Op, at uint64) uint64 {
	lat, err := r.access(o, at)
	if err != nil {
		r.stepErr = err
	}
	return lat
}

// access computes the latency of one memory operation issued at `at`:
// the stage's front end, the cache hierarchy, and on an LLC miss the
// stage's memory-side translation, then DRAM and the fill.
//
//vbi:hotpath
func (r *runner) access(op cpu.Op, at uint64) (uint64, error) {
	// Front end: the address the caches see, and the cycles spent
	// producing it.
	a := op.Addr
	var t uint64
	switch r.stage {
	case stagePhys:
		lat, pa, err := r.translate(a, at)
		if err != nil {
			return 0, err
		}
		a, t = uint64(pa), lat
	case stageVBI:
		vbi, lat, err := r.cvtAccess(op, at)
		if err != nil {
			return 0, err
		}
		a, t = vbi, lat
	}

	line := cache.LineOf(a)
	res := r.hier.Access(line, op.Write)
	t += res.Latency
	r.drainWritebacks(res.Writebacks, at+t)
	if !res.MissedLLC {
		return t, nil
	}

	// LLC miss: memory-side translation runs in parallel with the LLC
	// lookup, so only latency beyond the LLC stage is exposed.
	pa, mc, zero, err := r.memTranslate(a, at+t)
	if err != nil {
		return t, err
	}
	if mc > cache.DefaultLatencies.LLC {
		t += mc - cache.DefaultLatencies.LLC
	}
	var done uint64
	if zero {
		// Zero line straight from the memory controller: no DRAM access
		// (§5.1). The line is installed in the caches like any fill.
		done = at + t + dram.ControllerOverhead
	} else {
		done = r.mem.Access(pa, at+t, false)
	}
	t = done - at
	r.drainWritebacks(r.hier.Fill(line, op.Write), done)
	return t, nil
}

// memTranslate is the stage's translation at the memory controller for
// cache address a, which missed the LLC at `at`. It returns the DRAM
// address, the controller latency, and whether the line reads as zeros.
// stagePhys translated before the caches, so a is already physical.
//
//vbi:hotpath
func (r *runner) memTranslate(a, at uint64) (pa, lat uint64, zero bool, err error) {
	switch r.stage {
	case stageVIVT:
		lat, p, err := r.translate(a, at)
		return uint64(p), lat, false, err
	case stageEnigma:
		return r.ctcTranslate(a, at)
	case stageVBI:
		return r.mtlTranslate(a, at)
	}
	return a, 0, false, nil
}

// drainWritebacks schedules the dirty victims of an access or fill at
// `at` (off the critical path, but occupying banks), translating each
// victim's cache address to its DRAM target as the stage requires.
//
//vbi:hotpath
func (r *runner) drainWritebacks(wbs []uint64, at uint64) {
	for _, wb := range wbs {
		switch r.stage {
		case stagePhys:
			r.mem.Access(wb, at, true)
		case stageVIVT:
			// Virtual caches tag lines virtually; a victim whose page
			// has no mapping is dropped.
			if pa, ok := r.lookup(wb); ok {
				r.mem.Access(uint64(pa), at, true)
			}
		case stageEnigma:
			r.ctcWriteback(wb, at)
		case stageVBI:
			r.mtlWriteback(wb, at)
		}
	}
}

// beginMeasurement snapshots counters at the warmup boundary.
func (r *runner) beginMeasurement() {
	r.startCycles = r.cpu.Finish()
	r.startInstrs = r.cpu.Instrs()
	r.startRefs = r.memRefs
	r.dramStart = r.mem.TotalStats()
	r.s = r.c
}

// result finalizes the measured phase.
func (r *runner) result() RunResult {
	cycles := r.cpu.Finish() - r.startCycles
	instrs := r.cpu.Instrs() - r.startInstrs
	d := r.mem.TotalStats()
	res := RunResult{
		System:       r.kind.String(),
		Workload:     r.prof.Name,
		Cycles:       cycles,
		Instrs:       instrs,
		MemRefs:      r.memRefs - r.startRefs,
		DRAMAccesses: d.Reads + d.Writes - r.dramStart.Reads - r.dramStart.Writes,
		Extra:        stats.Counters{},
	}
	if cycles > 0 {
		res.IPC = float64(instrs) / float64(cycles)
	}
	c, s, e := &r.c, &r.s, res.Extra
	switch r.stage {
	case stageVBI:
		e["cvt.misses"] = c.cvtMisses - s.cvtMisses
		e["mtl.translations"] = c.translations - s.translations
		e["mtl.tlb.misses"] = c.mtlTLBMisses - s.mtlTLBMisses
		e["mtl.walk.accesses"] = c.walkAccesses - s.walkAccesses
		e["mtl.zero.lines"] = c.zeroLines - s.zeroLines
		e["mtl.region.allocs"] = c.regionAllocs - s.regionAllocs
		e["os.faults"] = c.faults - s.faults
	case stageEnigma:
		e["ctc.misses"] = c.ctcMisses - s.ctcMisses
		e["page.allocs"] = c.pageAllocs - s.pageAllocs
	default:
		e["tlb.misses"] = c.tlbMisses - s.tlbMisses
		e["walks"] = c.walks - s.walks
		e["walk.accesses"] = c.walkAccesses - s.walkAccesses
		e["os.faults"] = c.faults - s.faults
	}
	return res
}
