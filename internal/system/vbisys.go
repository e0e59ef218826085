package system

import (
	"vbi/internal/addr"
	"vbi/internal/core"
	"vbi/internal/cpu"
	"vbi/internal/mtl"
	"vbi/internal/osmodel"
	"vbi/internal/phys"
	"vbi/internal/tlb"
	"vbi/internal/workloads"
)

// vbiStage is the translation state of the three VBI variants (§7.2):
//
//	VBI-1:    inherently virtual caches + flexible translation structures
//	          mapping VBs at 4 KB granularity;
//	VBI-2:    VBI-1 + delayed physical allocation (zero lines, §5.1);
//	VBI-Full: VBI-2 + early reservation (direct-mapped VBs, §5.3).
//
// Every memory operation passes the CVT permission check (per-core CVT
// cache, §4.3), indexes the on-chip caches with the VBI address, and only
// consults the MTL at the memory controller on an LLC miss — in parallel
// with the LLC lookup (§4.2.3). Dirty LLC evictions are translated (and,
// under delayed allocation, trigger the physical allocation) on their way
// to DRAM.
type vbiStage struct {
	sys   *core.System
	vbios *osmodel.VBIOS
	vcore *core.Core
	vproc *osmodel.VBIProcess

	// Structures are segmented into VBs of at most 1<<chunkShift bytes;
	// chunkIdx maps struct -> chunk -> CVT index. Heterogeneous-memory
	// runs chunk large structures for placement (the allocator-level
	// segmentation of §7.3 workloads); every other run maps each
	// structure to one VB, as one chunk of the largest size class.
	chunkShift uint
	chunkIdx   [][]int

	// pendingPenalty charges background work (epoch migration bandwidth)
	// to the next access.
	pendingPenalty uint64

	// nodeCache is the MTL's walk cache: a 32-entry cache of translation-
	// structure node pointers, the analogue of the conventional walker's
	// page-walk cache (Table 1 keeps translation-caching budgets equal
	// across systems). Upper-level node reads hit it; the final (leaf)
	// entry read always goes to memory, as in a PWC-accelerated walk.
	nodeCache *tlb.TLB
}

func mtlConfigFor(kind Kind) mtl.Config {
	switch kind {
	case VBI2:
		return mtl.Config{DelayedAlloc: true}
	case VBIFull:
		return mtl.Config{DelayedAlloc: true, EarlyReservation: true}
	default: // VBI1
		return mtl.Config{}
	}
}

// initVBI sets up a VBI kind over the machine's MTL and OS, building them
// if this is the first core, with one VB per structure.
func (r *runner) initVBI(cfg Config, ss *sharedState) error {
	if ss.sys == nil {
		mc := mtlConfigFor(r.kind)
		mc.UniformTables = cfg.UniformTables
		m := mtl.New(mc, mtl.NewZones(
			map[string]uint64{"DRAM": cfg.Capacity}, []string{"DRAM"}))
		ss.sys = core.NewSystem(m)
		ss.vbios = osmodel.NewVBIOS(ss.sys)
	}
	r.attachVBI(ss.sys, ss.vbios)
	vbs, err := r.requestVBs(addr.Size128TB.OffsetBits())
	if err != nil {
		return err
	}
	return r.prefill(vbs)
}

// attachVBI makes r a VBI core of sys under vbios: its CVT-caching core,
// a fresh process, and the MTL walk cache. The caller then lays out the
// VBs (requestVBs) and prefills them.
func (r *runner) attachVBI(sys *core.System, vbios *osmodel.VBIOS) {
	r.stage = stageVBI
	r.sys, r.vbios = sys, vbios
	r.nodeCache = tlb.New("MTLwalk", 1, r.p.PWCEntries)
	// Lazy cache cleanup (§4.2.4): stale lines of a disabled VB are
	// invalidated before its VBUID is recycled.
	vbios.OnDisable = func(u addr.VBUID) {
		base, size := uint64(u.Base()), u.Size()
		r.hier.InvalidateIf(func(line uint64) bool {
			return line >= base && line-base < size
		})
	}
	r.vcore = core.NewCore(sys)
	r.vproc = vbios.CreateProcess()
	r.vcore.SwitchClient(r.vproc.Client)
}

// requestVBs lays out the profile's structures in order, each as VBs of
// at most 1<<chunkShift bytes attached to the core's process, and returns
// each structure's VBs.
func (r *runner) requestVBs(chunkShift uint) ([][]addr.VBUID, error) {
	r.chunkShift = chunkShift
	vbs := make([][]addr.VBUID, len(r.prof.Structs))
	r.chunkIdx = make([][]int, len(r.prof.Structs))
	for si, s := range r.prof.Structs {
		for ci := 0; ; ci++ {
			size := chunkLen(s.Size, ci, chunkShift)
			if size == 0 {
				break
			}
			idx, u, err := r.vbios.RequestVB(r.vproc, size, workloads.PropsFor(s))
			if err != nil {
				return nil, err
			}
			r.chunkIdx[si] = append(r.chunkIdx[si], idx)
			vbs[si] = append(vbs[si], u)
		}
	}
	return vbs, nil
}

// prefill is the initialization pass over the VBs requestVBs laid out:
// startup writes allocate each structure's live data, chunk by chunk, so
// the simulated region's zero lines come only from the genuinely
// never-written cold tails (§5.1). Without delayed allocation (VBI-1)
// every first touch allocates, so stepping grows a region table up to its
// structure's size: it is reserved for that size here, not inside the
// timed loop. Under delayed allocation the warm bytes bound it, since cold
// reads are zero lines and writes stay out of the cold tail.
func (r *runner) prefill(vbs [][]addr.VBUID) error {
	whole := !r.sys.MTL.Config().DelayedAlloc
	for si, s := range r.prof.Structs {
		warm := s.WarmBytes()
		for ci, u := range vbs[si] {
			if whole {
				if err := r.sys.MTL.ReserveRegions(u, chunkLen(s.Size, ci, r.chunkShift)); err != nil {
					return err
				}
			}
			n := chunkLen(warm, ci, r.chunkShift)
			if n == 0 {
				break
			}
			if err := r.sys.MTL.Prefill(u, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// chunkLen is how many of a structure's first n bytes fall in its chunk ci
// of 1<<shift bytes.
func chunkLen(n uint64, ci int, shift uint) uint64 {
	start := uint64(ci) << shift
	if n <= start {
		return 0
	}
	return min(n-start, 1<<shift)
}

// packVAddr fits {CVT index, offset} into cpu.Op.Addr: offsets never exceed
// 2^47 (the largest size class), leaving the top bits for the index.
func packVAddr(index int, offset uint64) uint64 {
	return uint64(index)<<48 | offset
}

func unpackVAddr(a uint64) core.VAddr {
	return core.VAddr{Index: int(a >> 48), Offset: a & (1<<48 - 1)}
}

// cvtAccess is VBI's front end: the CVT permission check, a bounded slice
// of pending migration traffic, and on a CVT-cache miss the CVT entry
// fetch through the memory hierarchy (§4.1.2). It returns the VBI address
// the caches index and the cycles spent.
//
//vbi:hotpath
func (r *runner) cvtAccess(op cpu.Op, at uint64) (uint64, uint64, error) {
	want := core.PermR
	if op.Write {
		want = core.PermW
	}
	ev, err := r.vcore.Access(unpackVAddr(op.Addr), want)
	if err != nil {
		return 0, 0, err
	}
	var t uint64
	if r.pendingPenalty > 0 {
		// Migration runs as background DMA: the core sees bounded
		// bandwidth interference per access, not a lump stall.
		drain := r.pendingPenalty
		if drain > migDrainPerAccess {
			drain = migDrainPerAccess
		}
		t += drain
		r.pendingPenalty -= drain
	}
	if !ev.CVTCacheHit {
		r.c.cvtMisses++
		lat, missed, wbs := r.hier.WalkerAccess(uint64(ev.CVTMemAccess))
		t += lat
		if missed {
			done := r.mem.Access(uint64(ev.CVTMemAccess), at+t, false)
			t = done - at
		}
		r.drainWritebacks(wbs, at+t)
	}
	return uint64(ev.VBI), t, nil
}

// mtlTranslate is VBI's memory-side stage: the MTL translates the VBI
// address of an LLC miss issued at start.
//
//vbi:hotpath
func (r *runner) mtlTranslate(a, start uint64) (pa, lat uint64, zero bool, err error) {
	ev, err := r.sys.MTL.TranslateRead(addr.Addr(a))
	if err != nil {
		return 0, 0, false, err
	}
	return uint64(ev.Phys), r.chargeMTL(ev, start), ev.ZeroLine, nil
}

// chargeMTL converts an MTL event into memory-controller latency, issuing
// its VIT and translation-structure reads to DRAM serially (the MTL sits
// at the controller; its table reads do not traverse the on-chip caches,
// but upper-level nodes hit the MC-side walk cache).
//
//vbi:hotpath
func (r *runner) chargeMTL(ev mtl.Event, start uint64) uint64 {
	r.c.translations++
	cur := start + uint64(r.p.MTLLookupMin)
	if !ev.TLBL1Hit {
		cur += uint64(r.p.L2TLBLatency)
	}
	if !ev.TLBL1Hit && !ev.TLBL2Hit {
		r.c.mtlTLBMisses++
	}
	if ev.VITAccess != phys.NoAddr {
		cur = r.mem.Access(uint64(ev.VITAccess), cur, false)
	}
	cur = r.chargeWalk(ev.WalkAccesses, cur)
	if ev.AllocatedRegion {
		r.c.regionAllocs++
		cur += uint64(r.p.MCAllocCost)
	}
	if ev.OSFault {
		r.c.faults++
		cur += uint64(r.p.SwapFaultCost)
	}
	if ev.ZeroLine {
		r.c.zeroLines++
	}
	return cur - start
}

// chargeWalk issues a translation-structure walk: upper-level node reads
// consult the MTL walk cache (node-pointer granularity, like the baseline
// PWC); the final entry read always goes to memory. Returns the completion
// time.
//
//vbi:hotpath
func (r *runner) chargeWalk(accesses []phys.Addr, at uint64) uint64 {
	cur := at
	for i, a := range accesses {
		r.c.walkAccesses++
		if i < len(accesses)-1 {
			node := uint64(a) >> 12
			if _, ok := r.nodeCache.Lookup(node); ok {
				cur += uint64(r.p.MTLCacheLat)
				continue
			}
			r.nodeCache.Insert(node, 1)
		}
		cur = r.mem.Access(uint64(a), cur, false)
	}
	return cur
}

// mtlWriteback translates a dirty VBI line at the controller and writes it
// to DRAM. Under delayed allocation this is the allocation trigger (§5.1).
//
//vbi:hotpath
func (r *runner) mtlWriteback(wb, at uint64) {
	ev, err := r.sys.MTL.TranslateWriteback(addr.Addr(wb))
	if err != nil {
		return // VB disabled mid-flight; drop the line
	}
	cur := at
	if ev.VITAccess != phys.NoAddr {
		cur = r.mem.Access(uint64(ev.VITAccess), cur, false)
	}
	cur = r.chargeWalk(ev.WalkAccesses, cur)
	if ev.AllocatedRegion {
		r.c.regionAllocs++
	}
	r.mem.Access(uint64(ev.Phys), cur, true)
}
