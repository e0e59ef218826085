package mtl

import (
	"fmt"

	"vbi/internal/addr"
	"vbi/internal/phys"
	"vbi/internal/tlb"
)

// Event reports everything the timing model needs to charge one MTL
// translation request (issued at the LLC-miss boundary, §4.2.3, in parallel
// with the LLC lookup).
type Event struct {
	// Phys is the translated physical address (valid unless ZeroLine).
	Phys phys.Addr
	// ZeroLine is set when the access hit a never-allocated region under
	// delayed allocation: the MTL returns a zero line with no DRAM access
	// and no translation-structure walk (§5.1).
	ZeroLine bool
	// TLBL1Hit / TLBL2Hit report where the MTL TLB resolved the request.
	TLBL1Hit bool
	TLBL2Hit bool
	// VITCacheHit is set when the VB's VIT entry was cached on chip.
	VITCacheHit bool
	// VITAccess is the physical address of the VIT entry read from memory
	// on a VIT-cache miss (phys.NoAddr when none).
	VITAccess phys.Addr
	// WalkAccesses lists translation-structure reads (DRAM accesses at the
	// memory controller). The slice aliases the VB table's inline walk
	// buffer and is valid until that table's next walk; callers charge the
	// accesses immediately and never retain the slice.
	WalkAccesses []phys.Addr
	// AllocatedRegion is set when this request allocated a 4 KB region.
	AllocatedRegion bool
	// OSFault is set when the OS was interrupted to load data from the
	// backing store (swap-in or memory-mapped file read, §5.1).
	OSFault bool
}

// lookupTLBs probes the two MTL TLB levels, promoting L2 hits into L1.
func (m *MTL) lookupTLBs(a uint64) (tlb.RangeEntry, int) {
	if e, ok := m.tlbL1.Lookup(a); ok {
		return e, 1
	}
	if e, ok := m.tlbL2.Lookup(a); ok {
		m.tlbL1.Insert(e)
		return e, 2
	}
	return tlb.RangeEntry{}, 0
}

// insertTLB caches a translation at the granularity of the VB's structure:
// direct-mapped VBs get one entry covering the whole VB (§5.3); table-
// mapped VBs get a 4 KB entry.
func (m *MTL) insertTLB(vb *vbState, region uint64, frame phys.Addr) {
	var e tlb.RangeEntry
	switch {
	case vb.kind == TransDirect:
		e = tlb.RangeEntry{
			Base: uint64(vb.id.Base()),
			Size: vb.id.Size(),
			Phys: uint64(vb.directBase),
		}
	case vb.blockShift > RegionShift:
		// Chunk-mapped VB (§5.3 fallback): one entry per reserved chunk.
		blockIdx := vb.blockIndex(region)
		e = tlb.RangeEntry{
			Base: uint64(vb.id.Base()) + blockIdx<<vb.blockShift,
			Size: 1 << vb.blockShift,
			Phys: uint64(vb.blocks[blockIdx]),
		}
	default:
		e = tlb.RangeEntry{
			Base: uint64(vb.id.Base()) + region<<RegionShift,
			Size: RegionSize,
			Phys: uint64(frame),
		}
	}
	m.tlbL1.Insert(e)
	m.tlbL2.Insert(e)
}

// readVIT models the VIT lookup: a VIT-cache hit costs nothing; a miss
// reads the entry from memory (one DRAM access at the controller).
func (m *MTL) readVIT(u addr.VBUID, ev *Event) {
	if _, ok := m.vitCache.Lookup(uint64(u)); ok {
		ev.VITCacheHit = true
		m.Stats.VITCacheHits++
		return
	}
	m.vitCache.Insert(uint64(u), 1)
	ev.VITAccess = VITEntryAddr(u)
	m.Stats.VITMemAccesses++
}

// TranslateRead handles an LLC read miss for VBI address a (§4.2.3 steps
// 7–9). With delayed allocation, reads of never-allocated regions return a
// zero line without allocating or walking (§5.1); without it (VBI-1) the
// region is allocated on first access.
func (m *MTL) TranslateRead(a addr.Addr) (Event, error) {
	return m.translate(a, false)
}

// TranslateWriteback handles a dirty-line eviction from the LLC: under
// delayed allocation this is the moment physical memory is allocated
// (§5.1). It also resolves copy-on-write sharing: a writeback to a frame
// shared with a clone triggers the lazy copy (§4.4).
func (m *MTL) TranslateWriteback(a addr.Addr) (Event, error) {
	return m.translate(a, true)
}

func (m *MTL) translate(a addr.Addr, forWrite bool) (Event, error) {
	m.Stats.Translations++
	ev := Event{VITAccess: phys.NoAddr}
	u, off := a.Split()
	vb, err := m.vb(u)
	if err != nil {
		return ev, err
	}
	vb.accessCount++
	if forWrite {
		vb.writeCount++
	}
	region := off >> RegionShift

	_, lvl := m.lookupTLBs(uint64(a))
	switch lvl {
	case 1:
		ev.TLBL1Hit = true
		m.Stats.TLBL1Hits++
	case 2:
		ev.TLBL2Hit = true
		m.Stats.TLBL2Hits++
	default:
		m.readVIT(u, &ev)
	}

	frame, allocated := vb.regions.frame(region)
	switch {
	case allocated:
		// Nothing to do: mapping exists. Charge the walk only on a TLB
		// miss.
		if lvl == 0 {
			ev.WalkAccesses = m.walkAccesses(vb, region)
			m.Stats.WalkAccesses += uint64(len(ev.WalkAccesses))
		}
	case vb.regions.isSwapped(region) || vb.isFile:
		// Swapped-out or file-backed region: the MTL allocates memory and
		// interrupts the OS to load the data (§5.1 case 1).
		if frame, err = m.allocateRegion(vb, region); err != nil {
			return ev, err
		}
		ev.AllocatedRegion = true
		ev.OSFault = true
		ev.WalkAccesses = m.walkAccesses(vb, region) // table update traffic
		m.Stats.WalkAccesses += uint64(len(ev.WalkAccesses))
	case !forWrite && m.cfg.DelayedAlloc:
		// Never-touched region under delayed allocation: zero line, no
		// allocation, no DRAM access (§5.1 case 2). The region-allocation
		// metadata lives with the MTL, so this works even when a
		// whole-VB direct-map TLB entry hit.
		ev.ZeroLine = true
		m.Stats.ZeroLines++
		return ev, nil
	default:
		// First touch without delayed allocation (VBI-1 allocates on
		// access), or the first dirty eviction into an unallocated region
		// (the delayed-allocation trigger).
		if frame, err = m.allocateRegion(vb, region); err != nil {
			return ev, err
		}
		ev.AllocatedRegion = true
		ev.WalkAccesses = m.walkAccesses(vb, region) // table update traffic
		m.Stats.WalkAccesses += uint64(len(ev.WalkAccesses))
	}

	if forWrite {
		if newFrame, copied, err := m.resolveCOW(vb, region); err != nil {
			return ev, err
		} else if copied {
			frame = newFrame
			ev.AllocatedRegion = true
		}
	}
	if lvl == 0 || ev.AllocatedRegion {
		m.insertTLB(vb, region, frame)
	}
	ev.Phys = frame + phys.Addr(off&(RegionSize-1))
	return ev, nil
}

// walkAccesses returns the structure-entry addresses hardware reads to
// translate the region (empty for direct-mapped VBs: the VIT entry itself
// holds the base). The result aliases the table's walk buffer — see
// Event.WalkAccesses.
//
//vbi:hotpath
func (m *MTL) walkAccesses(vb *vbState, region uint64) []phys.Addr {
	if vb.kind == TransDirect || vb.table == nil {
		return nil
	}
	return vb.table.Walk(vb.blockIndex(region), nil).Accesses
}

// resolveCOW performs the lazy copy of a shared region on its first write:
// the writing VB gets a fresh frame with the shared contents, and the other
// sharers keep the original (§4.4, clone_vb).
func (m *MTL) resolveCOW(vb *vbState, region uint64) (phys.Addr, bool, error) {
	frame, ok := vb.regions.frame(region)
	if !ok {
		return phys.NoAddr, false, nil
	}
	if m.frameRefs[frame] <= 1 {
		return frame, false, nil
	}
	newFrame, err := m.allocRegionFrame(vb)
	if err != nil {
		return phys.NoAddr, false, err
	}
	if m.Data != nil {
		m.Data.CopyRange(uint64(newFrame), uint64(frame), RegionSize)
	}
	m.frameRefs[frame]--
	if m.frameRefs[frame] == 1 {
		delete(m.frameRefs, frame)
	}
	vb.regions.setFrame(region, newFrame)
	if vb.kind == TransDirect || vb.blockShift > RegionShift {
		// Direct- and chunk-mapped VBs cannot point individual region
		// frames elsewhere; downgrade to page granularity first
		// (downgradeToPages re-maps vb.regions, which already holds the
		// new frame).
		if err := m.downgradeToPages(vb); err != nil {
			return phys.NoAddr, false, err
		}
	} else {
		m.mapRegionOrPanic(vb, region, newFrame)
	}
	m.InvalidateTLBRange(addr.Make(vb.id, region<<RegionShift), RegionSize)
	m.Stats.COWCopies++
	return newFrame, true, nil
}

func (m *MTL) mapRegionOrPanic(vb *vbState, region uint64, frame phys.Addr) {
	if err := vb.table.Map(region, frame); err != nil {
		panic(fmt.Sprintf("mtl: remap of existing region failed: %v", err))
	}
}
