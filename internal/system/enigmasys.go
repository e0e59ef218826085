package system

import "vbi/internal/enigma"

// Enigma-HW-2M (§7.2.2) caches intermediate addresses, deferring
// translation to the memory controller like VBI: a 16K-entry centralized
// translation cache (CTC), hardware flat-table walks, and 2 MB pages
// allocated on first touch.

// initEnigma gives the core its own Enigma over capacity bytes, places
// every structure in its intermediate address space and allocates the
// pages of the live data.
func (r *runner) initEnigma(capacity uint64) error {
	r.stage = stageEnigma
	r.eng = enigma.New(capacity)
	for _, s := range r.prof.Structs {
		base := r.eng.AllocRegion(s.Size)
		r.bases = append(r.bases, base)
		// Initialization pass: first touches allocate the 2 MB pages of
		// the live data before the simulated region.
		end := base + s.WarmBytes()
		for ia := base; ia < end; ia += enigma.PageSize {
			if _, err := r.eng.Translate(ia); err != nil {
				return err
			}
		}
	}
	return nil
}

// ctcTranslate is Enigma's memory-side stage: a CTC lookup for the
// intermediate address of an LLC miss issued at start, a flat-table walk
// read on a CTC miss, and a page allocation on first touch.
//
//vbi:hotpath
func (r *runner) ctcTranslate(ia, start uint64) (pa, lat uint64, zero bool, err error) {
	ev, err := r.eng.Translate(ia)
	if err != nil {
		return 0, 0, false, err
	}
	cur := start + uint64(r.p.CTCLookupLat)
	if !ev.CTCHit {
		r.c.ctcMisses++
		cur = r.mem.Access(uint64(ev.WalkAccess), cur, false)
	}
	if ev.Allocated {
		r.c.pageAllocs++
		cur += uint64(r.p.MCAllocCost)
	}
	return uint64(ev.PA), cur - start, false, nil
}

// ctcWriteback translates a dirty intermediate-address line at the
// controller and writes it to DRAM.
//
//vbi:hotpath
func (r *runner) ctcWriteback(wb, at uint64) {
	ev, err := r.eng.Translate(wb)
	if err != nil {
		return
	}
	cur := at
	if !ev.CTCHit {
		cur = r.mem.Access(uint64(ev.WalkAccess), cur, false)
	}
	r.mem.Access(uint64(ev.PA), cur, true)
}
