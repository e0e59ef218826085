package mtl

import (
	"fmt"

	"vbi/internal/addr"
	"vbi/internal/phys"
)

// This file implements the MTL's functional data path. The timing
// simulator never carries data, but examples and the test suite exercise
// real loads and stores through the same mapping machinery to verify
// end-to-end semantics: zero-fill, copy-on-write cloning (§4.4), VB
// promotion (§4.4), swapping and memory-mapped files (§3.4).

// Load copies len(buf) bytes starting at VBI address a into buf,
// translating through the VB's structure. Never-written regions read as
// zeros; swapped-out regions read from the backing store without being
// swapped in; file-backed unallocated regions read through to the file.
func (m *MTL) Load(a addr.Addr, buf []byte) error {
	if m.Data == nil {
		return fmt.Errorf("mtl: no data store attached")
	}
	u, off := a.Split()
	vb, err := m.vb(u)
	if err != nil {
		return err
	}
	if off+uint64(len(buf)) > u.Size() {
		return fmt.Errorf("mtl: load of %d bytes at %v overruns VB", len(buf), a)
	}
	for done := 0; done < len(buf); {
		cur := off + uint64(done)
		region := cur >> RegionShift
		inRegion := cur & (RegionSize - 1)
		n := int(RegionSize - inRegion)
		if rem := len(buf) - done; n > rem {
			n = rem
		}
		chunk := buf[done : done+n]
		switch {
		case vb.regions.isSwapped(region):
			m.swap.Read(uint64(u.Base())+cur, chunk)
		default:
			if frame, ok := vb.regions.frame(region); ok {
				m.Data.Read(uint64(frame)+inRegion, chunk)
			} else if vb.isFile {
				m.files.Read(uint64(u.Base())+cur, chunk)
			} else {
				for i := range chunk {
					chunk[i] = 0
				}
			}
		}
		done += n
	}
	return nil
}

// Store writes data at VBI address a, allocating regions (and resolving
// copy-on-write sharing) as needed. Functionally this is the end state the
// timing path reaches after the dirty lines are eventually evicted.
func (m *MTL) Store(a addr.Addr, data []byte) error {
	if m.Data == nil {
		return fmt.Errorf("mtl: no data store attached")
	}
	u, off := a.Split()
	vb, err := m.vb(u)
	if err != nil {
		return err
	}
	if off+uint64(len(data)) > u.Size() {
		return fmt.Errorf("mtl: store of %d bytes at %v overruns VB", len(data), a)
	}
	for done := 0; done < len(data); {
		cur := off + uint64(done)
		region := cur >> RegionShift
		inRegion := cur & (RegionSize - 1)
		n := int(RegionSize - inRegion)
		if rem := len(data) - done; n > rem {
			n = rem
		}
		frame, err := m.allocateRegion(vb, region)
		if err != nil {
			return err
		}
		if newFrame, copied, err := m.resolveCOW(vb, region); err != nil {
			return err
		} else if copied {
			frame = newFrame
		}
		m.Data.Write(uint64(frame)+inRegion, data[done:done+n])
		done += n
	}
	return nil
}

// Clone implements clone_vb (§4.4): dst becomes a copy-on-write clone of
// src. Translation state is shared lazily: dst maps the same frames with
// elevated reference counts, and the first write to either side of a
// shared region triggers the copy. dst must be an enabled, empty VB of the
// same size class.
func (m *MTL) Clone(src, dst addr.VBUID) error {
	s, err := m.vb(src)
	if err != nil {
		return err
	}
	d, err := m.vb(dst)
	if err != nil {
		return err
	}
	if src.Class() != dst.Class() {
		return fmt.Errorf("mtl: clone across size classes (%v -> %v)", src, dst)
	}
	if d.regions.mappedN != 0 || d.kind != TransNone {
		return fmt.Errorf("mtl: clone destination %v not pristine", dst)
	}
	if s.regions.mappedN > 0 {
		// Build dst's page-granularity structure (even when src is
		// direct-mapped: the clone's frames start out scattered through
		// src's reservation, so dst cannot be direct).
		if err := m.ensurePageStructure(d); err != nil {
			return err
		}
		for region, end := uint64(0), s.regions.limit(); region < end; region++ {
			frame, ok := s.regions.frame(region)
			if !ok {
				continue
			}
			if err := d.table.Map(region, frame); err != nil {
				return err
			}
			d.regions.setFrame(region, frame)
			if n, ok := m.frameRefs[frame]; ok {
				m.frameRefs[frame] = n + 1
			} else {
				m.frameRefs[frame] = 2
			}
		}
	}
	for region, end := uint64(0), s.regions.limit(); region < end; region++ {
		if s.regions.isSwapped(region) {
			d.regions.setSwapped(region)
		}
	}
	if s.regions.swappedN > 0 {
		m.swap.CopyRange(uint64(dst.Base()), uint64(src.Base()), src.Size())
	}
	if s.isFile {
		d.isFile = true
		m.files.CopyRange(uint64(dst.Base()), uint64(src.Base()), src.Size())
	}
	return nil
}

// ensurePageStructure builds a page-granularity translation structure for
// the VB, bypassing early reservation (used by Clone and Promote, whose
// frames are inherited rather than freshly placed).
func (m *MTL) ensurePageStructure(vb *vbState) error {
	if vb.kind == TransSingle || vb.kind == TransMulti {
		return nil
	}
	if vb.kind != TransNone {
		return fmt.Errorf("mtl: %v already structured as %v", vb.id, vb.kind)
	}
	// A 4 KB VB gets a one-entry table, so its region can point anywhere.
	return m.newPageTable(vb)
}

// Promote implements promote_vb (§4.4): the translation information of the
// small VB is transferred to the (larger) VB so that the early portion of
// the large VB maps to the same physical memory. The caller is responsible
// for flushing the small VB's dirty cache lines first and for updating the
// CVT entry; the small VB is left empty, ready for disable_vb.
func (m *MTL) Promote(small, large addr.VBUID) error {
	s, err := m.vb(small)
	if err != nil {
		return err
	}
	l, err := m.vb(large)
	if err != nil {
		return err
	}
	if large.Class() <= small.Class() {
		return fmt.Errorf("mtl: promote target %v not larger than %v", large, small)
	}
	if l.regions.mappedN != 0 || l.kind != TransNone {
		return fmt.Errorf("mtl: promote destination %v not pristine", large)
	}
	if s.regions.mappedN > 0 || s.regions.swappedN > 0 {
		if err := m.ensurePageStructure(l); err != nil {
			return err
		}
	}
	for region, end := uint64(0), s.regions.limit(); region < end; region++ {
		frame, ok := s.regions.frame(region)
		if !ok {
			continue
		}
		if err := l.table.Map(region, frame); err != nil {
			return err
		}
		l.regions.setFrame(region, frame)
	}
	// Ownership transferred: clear the source so its disable does not free
	// the frames.
	s.regions.clearFrames()
	if s.table != nil {
		m.freeTable(s)
		s.kind = TransNone
	}
	if s.kind == TransDirect {
		m.unreserveAll(s)
		s.kind = TransNone
	}
	for region, end := uint64(0), s.regions.limit(); region < end; region++ {
		if s.regions.isSwapped(region) {
			l.regions.setSwapped(region)
			s.regions.clearSwapped(region)
		}
	}
	m.swap.CopyRange(uint64(large.Base()), uint64(small.Base()), small.Size())
	m.swap.ZeroRange(uint64(small.Base()), small.Size())
	if s.isFile {
		l.isFile = true
		m.files.CopyRange(uint64(large.Base()), uint64(small.Base()), small.Size())
	}
	m.InvalidateTLBRange(small.Base(), small.Size())
	return nil
}

// Prefill materializes the first n bytes of the VB, modelling a process
// initializing a data structure before the measured region of execution
// (the paper's Pin traces start after warm-up, when startup writes have
// already allocated the live data).
func (m *MTL) Prefill(u addr.VBUID, n uint64) error {
	vb, err := m.vb(u)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if n > u.Size() {
		n = u.Size()
	}
	last := (n - 1) >> RegionShift
	vb.regions.reserve(last + 1)
	for region := uint64(0); region <= last; region++ {
		if _, err := m.allocateRegion(vb, region); err != nil {
			return err
		}
	}
	return nil
}

// ReserveRegions sizes the VB's region table for its first n bytes in one
// allocation, so touching regions below n later never grows it.
func (m *MTL) ReserveRegions(u addr.VBUID, n uint64) error {
	vb, err := m.vb(u)
	if err != nil {
		return err
	}
	vb.regions.reserve((min(n, u.Size()) + RegionSize - 1) >> RegionShift)
	return nil
}

// SwapOutRegion moves one allocated region to the backing store (the
// physical-memory-capacity system calls of §3.4), freeing its frame.
// Shared (copy-on-write) regions are skipped, reported by the return.
func (m *MTL) SwapOutRegion(u addr.VBUID, region uint64) (bool, error) {
	vb, err := m.vb(u)
	if err != nil {
		return false, err
	}
	frame, ok := vb.regions.frame(region)
	if !ok {
		return false, nil
	}
	if m.frameRefs[frame] > 1 {
		return false, nil
	}
	vbiBase := uint64(u.Base()) + region<<RegionShift
	if m.Data != nil {
		copyFromStore(m.swap, m.Data, vbiBase, uint64(frame))
		m.Data.ZeroRange(uint64(frame), RegionSize)
	}
	vb.regions.delFrame(region)
	if vb.table != nil && vb.blockShift == RegionShift {
		// Chunk-mapped VBs keep the block entry: sibling regions still
		// live in the chunk, and translate() consults the region map for
		// swap state regardless of the mapping entry.
		vb.table.Unmap(region)
	}
	if vb.kind == TransDirect && vb.reservedOrder < 0 {
		// An unreserved direct VB (4 KB class) just lost its only frame;
		// its base is stale, so the swap-in must allocate afresh. Reserved
		// direct VBs keep their base: the freed slot returns to the
		// reservation and AllocAt rematerializes it in place.
		vb.kind = TransNone
		vb.directBase = phys.NoAddr
	}
	vb.regions.setSwapped(region)
	m.freeFrame(frame, 0)
	m.InvalidateTLBRange(addr.Addr(vbiBase), RegionSize)
	m.Stats.SwapOuts++
	return true, nil
}

// SwapOutVB swaps out every eligible region of the VB, returning the
// number of regions moved.
func (m *MTL) SwapOutVB(u addr.VBUID) (int, error) {
	vb, err := m.vb(u)
	if err != nil {
		return 0, err
	}
	n := 0
	for r, end := uint64(0), vb.regions.limit(); r < end; r++ {
		if _, mapped := vb.regions.frame(r); !mapped {
			continue
		}
		ok, err := m.SwapOutRegion(u, r)
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	return n, nil
}

// AttachFile associates file contents with a memory-mapped-file VB (§3.4):
// an offset within the VB maps to the same offset within the file.
func (m *MTL) AttachFile(u addr.VBUID, contents []byte) error {
	vb, err := m.vb(u)
	if err != nil {
		return err
	}
	if uint64(len(contents)) > u.Size() {
		return fmt.Errorf("mtl: file larger than VB %v", u)
	}
	vb.isFile = true
	m.files.Write(uint64(u.Base()), contents)
	return nil
}

// SyncFile writes the VB's resident modifications back to the file image
// (msync analogue) and returns the file contents.
func (m *MTL) SyncFile(u addr.VBUID, size uint64) ([]byte, error) {
	vb, err := m.vb(u)
	if err != nil {
		return nil, err
	}
	if !vb.isFile {
		return nil, fmt.Errorf("mtl: %v is not file-backed", u)
	}
	if m.Data != nil {
		for region, end := uint64(0), vb.regions.limit(); region < end; region++ {
			if frame, ok := vb.regions.frame(region); ok {
				copyFromStore(m.files, m.Data, uint64(u.Base())+region<<RegionShift, uint64(frame))
			}
		}
	}
	out := make([]byte, size)
	m.files.Read(uint64(u.Base()), out)
	return out, nil
}
