package mtl

import (
	"fmt"

	"vbi/internal/addr"
	"vbi/internal/memdata"
	"vbi/internal/pagetable"
	"vbi/internal/phys"
)

// TransKind identifies the VB's translation-structure type (§5.2).
type TransKind uint8

const (
	// TransNone means no physical memory has been allocated yet.
	TransNone TransKind = iota
	// TransDirect maps the whole VB to one contiguous physical region; a
	// single TLB entry covers the entire VB.
	TransDirect
	// TransSingle uses a one-level table of 4 KB mappings (128 KB and 4 MB
	// VBs); any region resolves with a single memory access.
	TransSingle
	// TransMulti uses a multi-level table whose depth grows with the size
	// class (2 levels for 128 MB up to 4 for 128 TB) — always at most the
	// 4 levels x86-64 pays for every page.
	TransMulti
)

func (k TransKind) String() string {
	switch k {
	case TransNone:
		return "none"
	case TransDirect:
		return "direct"
	case TransSingle:
		return "single-level"
	case TransMulti:
		return "multi-level"
	}
	return fmt.Sprintf("TransKind(%d)", uint8(k))
}

// staticKind returns the translation kind the static policy of §5.2 picks
// for a size class: 4 KB VBs are direct-mapped (they are one region),
// 128 KB and 4 MB VBs use a single-level table, and larger VBs use a
// multi-level table.
func staticKind(c addr.SizeClass) TransKind {
	switch c {
	case addr.Size4KB:
		return TransDirect
	case addr.Size128KB, addr.Size4MB:
		return TransSingle
	default:
		return TransMulti
	}
}

// pageGeometry returns the shape and kind of a page-granularity table for
// a size class, indexed by region (PageShift 0). Under the static policy
// of §5.2, 128 KB and 4 MB VBs get one contiguous level (a 4 MB VB's 1024
// entries span two frames), larger VBs ceil(bits/9) radix levels of 4 KB
// nodes, and a 4 KB VB that needs a table at all a one-entry root. The
// UniformTables ablation gives every VB four levels, as x86-64 walks four
// levels no matter how little of the address space a process uses.
func (m *MTL) pageGeometry(c addr.SizeClass) (pagetable.Geometry, TransKind) {
	bits := uint(max(0, int(c.OffsetBits())-RegionShift))
	levels, kind := 1, TransSingle
	switch {
	case m.cfg.UniformTables:
		levels, kind = 4, TransMulti
	case staticKind(c) == TransMulti:
		levels, kind = int(bits+8)/9, TransMulti // 9 index bits per node
	}
	rootBits := bits - min(bits, uint(9*(levels-1)))
	return pagetable.Geometry{Levels: levels, RootBits: rootBits}, kind
}

// newPageTable replaces the VB's structure with an empty page-granularity
// table of the shape pageGeometry picks; the caller releases any previous
// table.
func (m *MTL) newPageTable(vb *vbState) error {
	geo, kind := m.pageGeometry(vb.id.Class())
	t, err := pagetable.New(geo, vb)
	if err != nil {
		return err
	}
	vb.table, vb.kind = t, kind
	return nil
}

// AllocSized allocates a table node of size bytes for the VB (satisfies
// pagetable.FrameSource).
func (vb *vbState) AllocSized(size uint64) (phys.Addr, bool) {
	order, ok := phys.OrderFor(size)
	if !ok {
		return phys.NoAddr, false
	}
	return vb.alloc(order)
}

// alloc allocates a block of the given buddy order from the VB's home
// zone, falling back to any zone with space (the buddy's own three-level
// priority handles reservations within a zone).
func (vb *vbState) alloc(order int) (phys.Addr, bool) {
	z := vb.m.zones[vb.zone]
	if local, ok := z.Buddy.Alloc(vb.id, order); ok {
		return z.Base + local, true
	}
	for _, alt := range vb.m.zones {
		if local, ok := alt.Buddy.Alloc(vb.id, order); ok {
			return alt.Base + local, true
		}
	}
	return phys.NoAddr, false
}

// releaseTable frees every node of t, root first, and returns the bytes
// freed.
func (m *MTL) releaseTable(t *pagetable.Table) uint64 {
	var freed uint64
	t.EachNode(func(base phys.Addr, size uint64) {
		order, _ := phys.OrderFor(size)
		m.freeFrame(base, order)
		freed += size
	})
	return freed
}

// freeTable releases every node of the VB's table.
func (m *MTL) freeTable(vb *vbState) {
	m.releaseTable(vb.table)
	vb.table = nil
}

// ensureStructure lazily builds the VB's translation structure at its
// first allocation, applying early reservation when configured (§5.3).
func (m *MTL) ensureStructure(vb *vbState) error {
	if vb.kind != TransNone {
		return nil
	}
	c := vb.id.Class()
	if m.cfg.EarlyReservation {
		// Try to reserve the whole VB contiguously in its home zone; on
		// success the VB is direct-mapped with a single TLB entry.
		if order, ok := phys.OrderFor(c.Bytes()); ok {
			z := m.zones[vb.zone]
			if local, ok := z.Buddy.Reserve(vb.id, order); ok {
				vb.kind = TransDirect
				vb.directBase = z.Base + local
				vb.reservedOrder = order
				m.Stats.Reservations++
				return nil
			}
		}
		// §5.3 fallback: not enough contiguity for the whole VB, so map
		// it sparsely in blocks of the largest size class that can still
		// be reserved contiguously — a single-level table whose entries
		// each cover one reserved chunk.
		if shift, ok := m.chunkedShift(vb); ok {
			t, err := pagetable.New(pagetable.Geometry{Levels: 1, RootBits: c.OffsetBits() - shift}, vb)
			if err == nil {
				vb.kind = TransSingle
				vb.table = t
				vb.blockShift = shift
				vb.blocks = make(map[uint64]phys.Addr)
				return nil
			}
		}
		// Otherwise fall through to the static page-granularity policy.
	}
	return m.staticStructure(vb)
}

// staticStructure builds the page-granularity structure of the static
// policy (§5.2): 4 KB VBs are direct-mapped, every other VB (and every VB
// under the UniformTables ablation) gets a table.
func (m *MTL) staticStructure(vb *vbState) error {
	if m.cfg.UniformTables || staticKind(vb.id.Class()) != TransDirect {
		return m.newPageTable(vb)
	}
	frame, err := m.allocRegionFrame(vb)
	if err != nil {
		return err
	}
	vb.kind = TransDirect
	vb.directBase = frame
	return nil
}

// chunkedShift picks the block size (log2) for the chunked-reservation
// fallback: the largest contiguous chunk still reservable in the home
// zone, clamped so the single-level table keeps between 8 and 4096
// entries. ok is false when no useful chunking exists (block would be a
// single page, or the VB is too small to chunk).
func (m *MTL) chunkedShift(vb *vbState) (uint, bool) {
	c := vb.id.Class()
	offsetBits := c.OffsetBits()
	z := m.zones[vb.zone]
	maxOrder := z.Buddy.LargestUnreservedOrder()
	if maxOrder < 1 {
		return 0, false
	}
	shift := uint(RegionShift + maxOrder)
	if shift > offsetBits-3 {
		shift = offsetBits - 3 // at least 8 blocks, else direct would fit
	}
	if shift < offsetBits-12 {
		shift = offsetBits - 12 // at most 4096 table entries
	}
	if shift <= RegionShift || shift > uint(RegionShift+maxOrder) {
		return 0, false
	}
	return shift, true
}

// blockIndex returns the table index of the region under the VB's mapping
// granularity.
func (vb *vbState) blockIndex(region uint64) uint64 {
	if vb.blockShift > RegionShift {
		return region >> (vb.blockShift - RegionShift)
	}
	return region
}

// allocRegionFrame grabs one 4 KB frame for the VB.
func (m *MTL) allocRegionFrame(vb *vbState) (phys.Addr, error) {
	if frame, ok := vb.alloc(0); ok {
		return frame, nil
	}
	return phys.NoAddr, fmt.Errorf("mtl: out of physical memory")
}

// allocateRegion materializes the 4 KB region of the VB, zero-filling (or
// demand-loading) its data. For direct-mapped VBs the frame is the fixed
// slot inside the reservation; if that slot was stolen under memory
// pressure the VB loses its direct mapping and is downgraded to the static
// page-granularity structure (§5.3: a VB is direct-mapped only while all
// its memory maps to a single contiguous region).
func (m *MTL) allocateRegion(vb *vbState, region uint64) (phys.Addr, error) {
	if frame, ok := vb.regions.frame(region); ok {
		return frame, nil
	}
	if err := m.ensureStructure(vb); err != nil {
		return phys.NoAddr, err
	}
	var frame phys.Addr
	switch vb.kind {
	case TransDirect:
		want := vb.directBase + phys.Addr(region<<RegionShift)
		if vb.reservedOrder >= 0 {
			z := m.zones[m.ZoneOf(vb.directBase)]
			if z.Buddy.AllocAt(vb.id, want-z.Base, 0) {
				frame = want
				break
			}
			// Reservation slot stolen: downgrade to page granularity.
			if err := m.downgradeToPages(vb); err != nil {
				return phys.NoAddr, err
			}
			f, err := m.allocRegionFrame(vb)
			if err != nil {
				return phys.NoAddr, err
			}
			if err := vb.table.Map(region, f); err != nil {
				return phys.NoAddr, err
			}
			frame = f
			break
		}
		// 4 KB VB: region 0 is the direct base itself (allocated by
		// ensureStructure); any other region is out of range.
		if region != 0 {
			return phys.NoAddr, fmt.Errorf("mtl: region %d out of range for 4 KB VB", region)
		}
		frame = vb.directBase
	case TransSingle, TransMulti:
		if vb.blockShift > RegionShift {
			f, finalized, err := m.allocChunkedRegion(vb, region)
			if err != nil {
				return phys.NoAddr, err
			}
			if finalized {
				// A downgrade re-entered allocateRegion, which completed
				// the bookkeeping already.
				return f, nil
			}
			frame = f
			break
		}
		f, err := m.allocRegionFrame(vb)
		if err != nil {
			return phys.NoAddr, err
		}
		if err := vb.table.Map(region, f); err != nil {
			return phys.NoAddr, err
		}
		frame = f
	default:
		return phys.NoAddr, fmt.Errorf("mtl: %v has no structure", vb.id)
	}
	vb.regions.setFrame(region, frame)
	m.Stats.RegionAllocs++
	m.fillFreshRegion(vb, region, frame)
	return frame, nil
}

// allocChunkedRegion materializes a region of a chunk-mapped VB (§5.3
// fallback): the containing block is reserved contiguously on first touch,
// and the region is carved at its fixed slot inside the chunk. Losing
// either (chunk reservation impossible, or the slot stolen) downgrades the
// VB to page granularity.
func (m *MTL) allocChunkedRegion(vb *vbState, region uint64) (frame phys.Addr, finalized bool, err error) {
	blockIdx := vb.blockIndex(region)
	chunkBase, ok := vb.blocks[blockIdx]
	if !ok {
		z := m.zones[vb.zone]
		order := int(vb.blockShift) - RegionShift
		local, reserved := z.Buddy.Reserve(vb.id, order)
		if !reserved {
			if err := m.downgradeToPages(vb); err != nil {
				return phys.NoAddr, false, err
			}
			f, err := m.allocateRegion(vb, region)
			return f, true, err
		}
		chunkBase = z.Base + local
		vb.blocks[blockIdx] = chunkBase
		if err := vb.table.Map(blockIdx, chunkBase); err != nil {
			return phys.NoAddr, false, err
		}
		m.Stats.Reservations++
	}
	regionsPerBlock := uint64(1) << (vb.blockShift - RegionShift)
	want := chunkBase + phys.Addr((region-blockIdx*regionsPerBlock)<<RegionShift)
	z := m.zones[m.ZoneOf(chunkBase)]
	if z.Buddy.AllocAt(vb.id, want-z.Base, 0) {
		return want, false, nil
	}
	// Slot stolen under pressure: lose the chunked mapping.
	if err := m.downgradeToPages(vb); err != nil {
		return phys.NoAddr, false, err
	}
	f, err := m.allocateRegion(vb, region)
	return f, true, err
}

// downgradeToPages demotes a direct-mapped or chunk-mapped VB to the static
// page-granularity structure, re-mapping its already-allocated regions in
// place (they remain where they were, so no copying is needed) and
// releasing outstanding reservations.
func (m *MTL) downgradeToPages(vb *vbState) error {
	if vb.table != nil {
		m.freeTable(vb)
	}
	vb.blockShift = RegionShift
	vb.blocks = nil
	if err := m.newPageTable(vb); err != nil {
		return err
	}
	for region, end := uint64(0), vb.regions.limit(); region < end; region++ {
		frame, ok := vb.regions.frame(region)
		if !ok {
			continue
		}
		if err := vb.table.Map(region, frame); err != nil {
			return err
		}
	}
	m.zones[vb.zone].Buddy.Unreserve(vb.id)
	vb.reservedOrder = -1
	vb.directBase = phys.NoAddr
	m.Stats.Downgrades++
	// Whole-VB / whole-chunk TLB entries are stale now.
	m.InvalidateTLBRange(vb.id.Base(), vb.id.Size())
	return nil
}

// fillFreshRegion initializes the data of a newly-allocated region: file
// contents for memory-mapped files, swapped-out bytes for regions coming
// back from the backing store, zeros otherwise.
func (m *MTL) fillFreshRegion(vb *vbState, region uint64, frame phys.Addr) {
	if m.Data == nil {
		if vb.regions.isSwapped(region) {
			vb.regions.clearSwapped(region)
			m.Stats.OSFaults++
		}
		return
	}
	vbiBase := uint64(vb.id.Base()) + region<<RegionShift
	switch {
	case vb.regions.isSwapped(region):
		copyFromStore(m.Data, m.swap, uint64(frame), vbiBase)
		vb.regions.clearSwapped(region)
		m.swap.ZeroRange(vbiBase, RegionSize)
		m.Stats.OSFaults++
	case vb.isFile:
		copyFromStore(m.Data, m.files, uint64(frame), vbiBase)
		m.Stats.OSFaults++
	default:
		m.Data.ZeroRange(uint64(frame), RegionSize)
	}
}

// copyFromStore copies one region from src (at srcAddr) into dst (dstAddr).
func copyFromStore(dst, src *memdata.Store, dstAddr, srcAddr uint64) {
	buf := make([]byte, RegionSize)
	src.Read(srcAddr, buf)
	dst.Write(dstAddr, buf)
}
