package system

import (
	"fmt"

	"vbi/internal/osmodel"
	"vbi/internal/pagetable"
	"vbi/internal/phys"
	"vbi/internal/tlb"
)

// convStage is the translation state of the conventional baselines —
// Native, Native-2M, Perfect TLB, VIVT — and the virtualized ones —
// Virtual, Virtual-2M.
//
// Native/Native-2M translate on every access (VIPT L1: a TLB hit is free,
// a miss stalls for the L2 TLB and possibly a PWC-accelerated radix walk
// whose PTE reads go straight to DRAM). Virtual runs the same flow over
// a guest, with 2D nested walks. VIVT indexes all caches virtually and
// translates only at the LLC boundary, overlapped with the LLC lookup.
// Perfect TLB never misses the TLB (an unrealizable upper bound).
type convStage struct {
	// Native-side state.
	proc *osmodel.ConvProcess
	// Virtual-side state.
	vmHost *osmodel.VMHost
	vm     *osmodel.GuestVM

	pageShift uint

	l1tlb    *tlb.TLB
	l2tlb    *tlb.TLB
	pwc      *tlb.PWC // native walks / host dimension of nested walks
	guestPWC *tlb.PWC // Virtual-2M's 2D page-walk cache
}

// initConv sets up a conventional kind's TLBs and page tables, maps every
// structure and demand-pages its live data.
func (r *runner) initConv(cfg Config, ss *sharedState) error {
	r.stage = stagePhys
	if r.kind == VIVT {
		r.stage = stageVIVT
	}
	prof, p := r.prof, r.p
	geo := pagetable.Page4K
	l1Entries := p.L1TLB4KEntries
	if r.kind == Native2M || r.kind == Virtual2M {
		geo = pagetable.Page2M
		l1Entries = p.L1TLB2MEntries
	}
	r.pageShift = geo.PageShift
	r.l1tlb = tlb.New("L1TLB", 1, l1Entries)
	r.l2tlb = tlb.New("L2TLB", p.L2TLBEntries/p.L2TLBWays, p.L2TLBWays)
	r.pwc = tlb.NewPWC("PWC", p.PWCEntries)

	switch r.kind {
	case Virtual, Virtual2M:
		if ss.vmHost == nil {
			ss.vmHost = osmodel.NewVMHost(geo, cfg.Capacity)
		}
		r.vmHost = ss.vmHost
		guestMem := prof.Footprint() + prof.Footprint()/4 + 256<<20
		vm, err := r.vmHost.NewGuest(guestMem)
		if err != nil {
			return err
		}
		r.vm = vm
		// Hardware paging-structure caches cover the guest dimension in
		// virtualized mode too; Virtual-2M's additional 2D PWC (footnote
		// 4) is modelled by its host-dimension cache below.
		r.guestPWC = tlb.NewPWC("gPWC", p.PWCEntries)
		for _, s := range prof.Structs {
			base := vm.Mmap(s.Size)
			r.bases = append(r.bases, base)
			// Initialization pass: the guest writes its live data before
			// the simulated region begins.
			if err := vm.Populate(base, base+s.WarmBytes()); err != nil {
				return err
			}
		}
	default:
		if ss.os == nil {
			ss.os = osmodel.NewConvOS(geo, cfg.Capacity)
		}
		proc, err := ss.os.NewProcess()
		if err != nil {
			return err
		}
		r.proc = proc
		for _, s := range prof.Structs {
			base := proc.Mmap(s.Size)
			r.bases = append(r.bases, base)
			// Initialization pass (demand paging happens at startup, not
			// during the simulated region).
			if err := proc.Populate(base, base+s.WarmBytes()); err != nil {
				return err
			}
		}
	}
	return nil
}

// translate returns the translation latency and physical address,
// faulting/walking as needed.
//
//vbi:hotpath
func (r *runner) translate(va uint64, at uint64) (uint64, phys.Addr, error) {
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

	// Hardware page walk. Its PTE reads go straight to DRAM: unlike VBI's
	// CVT fetch they do not probe L2 or the LLC (DESIGN.md §9).
	r.c.walks++
	var accesses []phys.Addr
	var leaf phys.Addr
	if r.vm != nil {
		res := r.vm.Nested.Walk(va, r.pwc, r.guestPWC)
		if !res.OK {
			//vbi:allow hotalloc error path only; a faulting walk aborts the run
			return t, phys.NoAddr, fmt.Errorf("system: nested walk faulted at %#x", va)
		}
		accesses, leaf = res.Accesses, res.Phys
	} else {
		res := r.proc.Table.Walk(va, r.pwc)
		if !res.OK {
			//vbi:allow hotalloc error path only; a faulting walk aborts the run
			return t, phys.NoAddr, fmt.Errorf("system: walk faulted at %#x", va)
		}
		accesses, leaf = res.Accesses, res.Phys
	}
	// The reads are serialized: each level's address depends on the
	// previous read. The PWC already skipped the cached upper levels.
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
//
//vbi:hotpath
func (r *runner) touch(va uint64) (uint64, error) {
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
//
//vbi:hotpath
func (r *runner) touchNative(va uint64) (phys.Addr, uint64, error) {
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

// lookup translates a VIVT writeback victim without walking or faulting.
//
//vbi:hotpath
func (r *runner) lookup(va uint64) (phys.Addr, bool) {
	if r.vm != nil {
		return r.vm.Translate(va)
	}
	return r.proc.Translate(va)
}
