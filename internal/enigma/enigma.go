// Package enigma implements the Enigma baseline of Zhang et al. [137] as
// configured in §7.2.2 (Enigma-HW-2M): programs use a system-wide unique
// intermediate address space, on-chip caches are indexed by intermediate
// addresses (deferring translation to the memory controller, like VBI),
// and a large centralized translation cache (CTC, 16K entries) at the
// memory controller maps 2 MB intermediate pages to physical memory. The
// original design raised an OS system call on a CTC miss; following the
// paper's enhancement, misses here are served by a hardware walk of a flat
// table (one memory access), and pages are 2 MB.
//
// Unlike VBI, Enigma's OS still manages mapping policy, there is no
// delayed allocation (first touch allocates the whole 2 MB page), no
// per-structure translation flexibility, and its benefits do not extend to
// programs inside virtual machines (§7.2.2).
package enigma

import (
	"fmt"

	"vbi/internal/phys"
	"vbi/internal/tlb"
)

// PageShift is Enigma-HW-2M's translation granularity (2 MB).
const PageShift = 21

// PageSize is the translation granularity in bytes.
const PageSize = 1 << PageShift

// CTCEntries is the centralized translation cache size (§7.2.2: 16K
// entries, giving 32 GB of reach with 2 MB pages).
const CTCEntries = 16 * 1024

// flatTableBase is the synthetic physical region holding the flat
// intermediate-to-physical table.
const flatTableBase = uint64(1) << 46

// Stats counts Enigma events.
type Stats struct {
	Translations uint64
	CTCHits      uint64
	CTCMisses    uint64
	PageAllocs   uint64
}

// Event reports one translation for the timing model.
type Event struct {
	PA phys.Addr
	// CTCHit is set when the centralized translation cache resolved it.
	CTCHit bool
	// WalkAccess is the flat-table entry read on a miss (phys.NoAddr on a
	// hit).
	WalkAccess phys.Addr
	// Allocated is set when this access allocated the 2 MB page.
	Allocated bool
}

// Enigma is one memory-controller-side translation unit.
type Enigma struct {
	Stats Stats

	ctc   *tlb.TLB
	table map[uint64]phys.Addr // intermediate page number -> physical base
	ibrk  uint64               // intermediate-address bump pointer
	alloc *phys.Bump
}

// New builds an Enigma unit over capacity bytes of physical memory.
func New(capacity uint64) *Enigma {
	return &Enigma{
		// 8-way set-associative CTC.
		ctc:   tlb.New("CTC", CTCEntries/8, 8),
		table: make(map[uint64]phys.Addr),
		ibrk:  1 << 30,
		alloc: phys.NewBump(0, capacity),
	}
}

// AllocRegion reserves a region of the intermediate address space (the
// OS-visible allocation; physical memory arrives on first touch).
func (e *Enigma) AllocRegion(size uint64) uint64 {
	base := (e.ibrk + PageSize - 1) &^ (PageSize - 1)
	e.ibrk = base + size
	return base
}

// entryAddr returns the flat-table entry address for an intermediate page.
func entryAddr(ipn uint64) phys.Addr {
	return phys.Addr(flatTableBase | ipn*8)
}

// Translate maps an intermediate address to physical at the memory
// controller, allocating the 2 MB page on first touch (hardware-managed,
// no system call).
func (e *Enigma) Translate(ia uint64) (Event, error) {
	e.Stats.Translations++
	ev := Event{WalkAccess: phys.NoAddr}
	ipn := ia >> PageShift
	if base, ok := e.ctc.Lookup(ipn); ok {
		e.Stats.CTCHits++
		ev.CTCHit = true
		ev.PA = phys.Addr(base) + phys.Addr(ia&(PageSize-1))
		return ev, nil
	}
	e.Stats.CTCMisses++
	ev.WalkAccess = entryAddr(ipn)
	base, ok := e.table[ipn]
	if !ok {
		p, allocOK := e.alloc.AllocSized(PageSize)
		if !allocOK {
			return ev, fmt.Errorf("enigma: out of physical memory")
		}
		e.table[ipn] = p
		base = p
		ev.Allocated = true
		e.Stats.PageAllocs++
	}
	e.ctc.Insert(ipn, uint64(base))
	ev.PA = base + phys.Addr(ia&(PageSize-1))
	return ev, nil
}
