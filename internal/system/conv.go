package system

import (
	"fmt"

	"vbi/internal/cache"
	"vbi/internal/cpu"
	"vbi/internal/dram"
	"vbi/internal/osmodel"
	"vbi/internal/pagetable"
	"vbi/internal/phys"
	"vbi/internal/tlb"
	"vbi/internal/trace"
)

// convRunner simulates the conventional baselines — Native, Native-2M,
// Perfect TLB, VIVT — and the virtualized ones — Virtual, Virtual-2M.
//
// Native/Native-2M translate on every access (VIPT L1: a TLB hit is free,
// a miss stalls for the L2 TLB and possibly a PWC-accelerated radix walk
// whose PTE reads go through L2/LLC/DRAM). Virtual runs the same flow over
// a guest, with 2D nested walks. VIVT indexes all caches virtually and
// translates only at the LLC boundary, overlapped with the LLC lookup.
// Perfect TLB never misses the TLB (an unrealizable upper bound).
type convRunner struct {
	*coreKit
	kind Kind

	// Native-side state.
	os   *osmodel.ConvOS
	proc *osmodel.ConvProcess
	// Virtual-side state.
	vmHost *osmodel.VMHost
	vm     *osmodel.GuestVM

	bases     []uint64 // per-struct VA bases
	pageShift uint

	l1tlb    *tlb.TLB
	l2tlb    *tlb.TLB
	pwc      *tlb.PWC // native walks / host dimension of nested walks
	guestPWC *tlb.PWC // Virtual-2M's 2D page-walk cache

	// latFn is the access callback handed to cpu.Step, bound once at
	// construction so the per-reference loop never allocates a closure;
	// stepErr carries the current step's access error out of it.
	latFn   cpu.LatencyFn
	stepErr error

	c convCounters
	s convCounters // snapshot at warmup boundary
}

type convCounters struct {
	tlbMisses    uint64
	walks        uint64
	walkAccesses uint64
	faults       uint64
}

func newConvRunner(kind Kind, prof trace.Profile, cfg Config, mem *dram.Memory, llc *cache.Cache, shared *cache.Hierarchy, share *convShared) (*convRunner, error) {
	r := &convRunner{
		coreKit: newCoreKit(prof, cfg.Seed, cfg.Params, mem, llc, shared),
		kind:    kind,
	}
	r.latFn = r.stepLatency
	p := r.p
	geo := pagetable.Page4K
	l1Entries := p.L1TLB4KEntries
	if kind == Native2M || kind == Virtual2M {
		geo = pagetable.Page2M
		l1Entries = p.L1TLB2MEntries
	}
	r.pageShift = geo.PageShift
	r.l1tlb = tlb.New("L1TLB", 1, l1Entries)
	r.l2tlb = tlb.New("L2TLB", p.L2TLBEntries/p.L2TLBWays, p.L2TLBWays)
	r.pwc = tlb.NewPWC("PWC", p.PWCEntries)

	switch kind {
	case Virtual, Virtual2M:
		if share != nil && share.vmHost != nil {
			r.vmHost = share.vmHost
		} else {
			r.vmHost = osmodel.NewVMHost(geo, cfg.Capacity)
			if share != nil {
				share.vmHost = r.vmHost
			}
		}
		guestMem := prof.Footprint() + prof.Footprint()/4 + 256<<20
		vm, err := r.vmHost.NewGuest(guestMem)
		if err != nil {
			return nil, err
		}
		r.vm = vm
		// Hardware paging-structure caches cover the guest dimension in
		// virtualized mode too; Virtual-2M's additional 2D PWC (footnote
		// 4) is modelled by its host-dimension cache below.
		r.guestPWC = tlb.NewPWC("gPWC", p.PWCEntries)
		for si, s := range prof.Structs {
			base := vm.Mmap(s.Size)
			r.bases = append(r.bases, base)
			// Initialization pass: the guest writes its live data before
			// the simulated region begins.
			pageSize := geo.PageSize()
			for va := base; va < base+prof.Structs[si].WarmBytes(); va += pageSize {
				if _, err := vm.Touch(va); err != nil {
					return nil, err
				}
			}
		}
	default:
		if share != nil && share.os != nil {
			r.os = share.os
		} else {
			r.os = osmodel.NewConvOS(geo, cfg.Capacity)
			if share != nil {
				share.os = r.os
			}
		}
		proc, err := r.os.NewProcess()
		if err != nil {
			return nil, err
		}
		r.proc = proc
		for _, s := range prof.Structs {
			base := proc.Mmap(s.Size)
			r.bases = append(r.bases, base)
			// Initialization pass (demand paging happens at startup, not
			// during the simulated region).
			pageSize := geo.PageSize()
			for va := base; va < base+s.WarmBytes(); va += pageSize {
				if _, err := proc.Touch(va); err != nil {
					return nil, err
				}
			}
		}
	}
	return r, nil
}

// convShared lets quad-core runs share one OS/hypervisor instance.
type convShared struct {
	os     *osmodel.ConvOS
	vmHost *osmodel.VMHost
}

func (r *convRunner) now() uint64 { return r.cpu.Now() }

//vbi:hotpath
func (r *convRunner) step() error {
	ref := r.gen.Next()
	op := ref.Op
	op.Addr = r.bases[ref.StructIdx] + ref.Offset
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
func (r *convRunner) stepLatency(o cpu.Op, at uint64) uint64 {
	lat, err := r.access(o, at)
	if err != nil {
		r.stepErr = err
	}
	return lat
}

// access computes the latency of one memory operation issued at `at`.
func (r *convRunner) access(op cpu.Op, at uint64) (uint64, error) {
	va := op.Addr
	var t uint64
	var pa phys.Addr

	if r.kind == VIVT {
		// Virtual caches: permission/protection still carried by the page
		// table but no translation before the LLC boundary.
		line := cache.LineOf(va)
		res := r.hier.Access(line, op.Write)
		t += res.Latency
		r.drainWritebacks(res.Writebacks, at+t, r.wbTranslate)
		if !res.MissedLLC {
			return t, nil
		}
		// Translate in parallel with the LLC lookup.
		trans, paOut, err := r.translate(va, at+t)
		if err != nil {
			return t, err
		}
		if trans > cache.DefaultLatencies.LLC {
			t += trans - cache.DefaultLatencies.LLC
		}
		pa = paOut
		done := r.mem.Access(uint64(pa), at+t, false)
		t = done - at
		r.fillAndDrain(line, op.Write, done, r.wbTranslate)
		return t, nil
	}

	// Physically-addressed systems: translate first (VIPT: TLB hit free).
	trans, paOut, err := r.translate(va, at)
	if err != nil {
		return t, err
	}
	t += trans
	pa = paOut
	line := cache.LineOf(uint64(pa))
	res := r.hier.Access(line, op.Write)
	t += res.Latency
	r.drainWritebacks(res.Writebacks, at+t, nil)
	if res.MissedLLC {
		done := r.mem.Access(uint64(pa), at+t, false)
		t = done - at
		r.fillAndDrain(line, op.Write, done, nil)
	}
	return t, nil
}

// translate returns the translation latency and physical address,
// faulting/walking as needed.
func (r *convRunner) translate(va uint64, at uint64) (uint64, phys.Addr, error) {
	key := va >> r.pageShift
	offset := phys.Addr(va & (1<<r.pageShift - 1))

	if r.kind == PerfectTLB {
		// Idealized bound: no translation overhead and no demand-paging
		// cost (the pages appear mapped for free). Perfect TLB is a native
		// kind, so one descent both demand-pages and translates.
		pa, _, err := r.touchNative(va)
		if err != nil {
			return 0, phys.NoAddr, err
		}
		return 0, pa, nil
	}

	if base, ok := r.l1tlb.Lookup(key); ok {
		return 0, phys.Addr(base) + offset, nil
	}
	t := uint64(r.p.L2TLBLatency)
	if base, ok := r.l2tlb.Lookup(key); ok {
		r.l1tlb.Insert(key, base)
		return t, phys.Addr(base) + offset, nil
	}
	r.c.tlbMisses++

	// Demand paging happens on the walk path.
	faultCost, err := r.touch(va)
	if err != nil {
		return t, phys.NoAddr, err
	}
	t += faultCost

	// Hardware page walk: PTE reads traverse L2/LLC and memory.
	r.c.walks++
	var accesses []phys.Addr
	var leaf phys.Addr
	if r.vm != nil {
		res := r.vm.Nested.Walk(va, r.pwc, r.guestPWC)
		if !res.OK {
			return t, phys.NoAddr, fmt.Errorf("system: nested walk faulted at %#x", va)
		}
		accesses, leaf = res.Accesses, res.Phys
	} else {
		res := r.proc.Table.Walk(va, r.pwc)
		if !res.OK {
			return t, phys.NoAddr, fmt.Errorf("system: walk faulted at %#x", va)
		}
		accesses, leaf = res.Accesses, res.Phys
	}
	// Walker PTE reads are memory requests (serialized: each level's
	// address depends on the previous read). The PWC already skipped the
	// cached upper levels.
	r.c.walkAccesses += uint64(len(accesses))
	for _, a := range accesses {
		done := r.mem.Access(uint64(a), at+t, false)
		t = done - at
	}
	base := uint64(leaf) &^ (1<<r.pageShift - 1)
	r.l2tlb.Insert(key, base)
	r.l1tlb.Insert(key, base)
	return t, leaf, nil
}

// touch performs demand paging, returning the cycle cost of any faults.
func (r *convRunner) touch(va uint64) (uint64, error) {
	if r.vm != nil {
		hostBefore := r.vmHost.Stats.HostFaults
		fault, err := r.vm.Touch(va)
		if err != nil {
			return 0, err
		}
		var t uint64
		if fault {
			r.c.faults++
			t += uint64(r.p.GuestFaultCost)
		}
		t += (r.vmHost.Stats.HostFaults - hostBefore) * uint64(r.p.HostFaultCost)
		return t, nil
	}
	_, cost, err := r.touchNative(va)
	return cost, err
}

// touchNative is touch's native-process half. It also returns va's
// physical address, so a caller that needs no walk descends the page
// table once.
func (r *convRunner) touchNative(va uint64) (phys.Addr, uint64, error) {
	pa, fault, err := r.proc.TouchTranslate(va)
	if err != nil {
		return phys.NoAddr, 0, err
	}
	if fault {
		r.c.faults++
		return pa, uint64(r.p.MinorFaultCost), nil
	}
	return pa, 0, nil
}

func (r *convRunner) lookup(va uint64) (phys.Addr, bool) {
	if r.vm != nil {
		return r.vm.Translate(va)
	}
	return r.proc.Translate(va)
}

// wbTranslate resolves a virtual writeback line to its physical target
// (VIVT caches tag lines virtually).
func (r *convRunner) wbTranslate(line uint64) (uint64, bool) {
	pa, ok := r.lookup(line)
	return uint64(pa), ok
}

func (r *convRunner) beginMeasurement() {
	r.coreKit.beginMeasurement()
	r.s = r.c
}

func (r *convRunner) result() RunResult {
	res := r.baseResult(r.kind.String())
	res.Extra["tlb.misses"] = r.c.tlbMisses - r.s.tlbMisses
	res.Extra["walks"] = r.c.walks - r.s.walks
	res.Extra["walk.accesses"] = r.c.walkAccesses - r.s.walkAccesses
	res.Extra["os.faults"] = r.c.faults - r.s.faults
	return res
}
