package system

import "vbi/internal/obs"

// Phases maps this run's system-specific event counters onto the
// cross-system phase breakdown that obs.JobTiming carries on the wire.
// Every system family exports its own Extra keys (conventional systems
// count TLB misses and walks, VBI systems MTL/CVT activity, Enigma CTC
// misses); this is the one place those vocabularies meet, so the
// harness and the worker /metrics attribute time the same way:
//
//	tlb   first-level translation-cache misses
//	      (tlb.misses, mtl.tlb.misses, ctc.misses)
//	pwc   translation-structure lookups past the TLB
//	      (walks, cvt.misses)
//	walk  memory accesses issued by table walks
//	      (walk.accesses, mtl.walk.accesses)
//	cache references entering the cache hierarchy (MemRefs)
//	dram  main-memory accesses (DRAMAccesses)
//
// Counters a system does not keep contribute zero, so the breakdown is
// comparable across systems without every system growing every counter.
func (r RunResult) Phases() obs.PhaseCounts {
	e := r.Extra
	return obs.PhaseCounts{
		TLB:   e["tlb.misses"] + e["mtl.tlb.misses"] + e["ctc.misses"],
		PWC:   e["walks"] + e["cvt.misses"],
		Walk:  e["walk.accesses"] + e["mtl.walk.accesses"],
		Cache: r.MemRefs,
		DRAM:  r.DRAMAccesses,
	}
}

// SumPhases folds per-core results into one job-level breakdown (the
// form JobTiming carries for multiprogrammed bundles).
func SumPhases(results []RunResult) obs.PhaseCounts {
	var p obs.PhaseCounts
	for _, r := range results {
		p = p.Add(r.Phases())
	}
	return p
}
