// Package osmodel simulates the operating-system layer of every evaluated
// system: demand-paged virtual memory for the conventional baselines
// (Native, Native-2M, VIVT, Perfect TLB), two-level guest/host management
// for the virtualized baselines (Virtual, Virtual-2M), and the VBI-side OS
// of §4.4 — process creation and destruction, the request_vb system call,
// forking with clone_vb, shared libraries with CVT-relative layout, and VB
// promotion.
package osmodel

import (
	"errors"

	"vbi/internal/pagetable"
	"vbi/internal/phys"
)

// errOutOfMemory reports an exhausted physical memory.
var errOutOfMemory = errors.New("osmodel: out of physical memory")

// ConvStats counts OS events of the conventional model.
type ConvStats struct {
	MinorFaults uint64 // demand-paging first-touch faults
	PagesMapped uint64
}

// ConvOS is the conventional-baseline OS: per-process radix page tables
// over a flat physical memory, demand paging at the configured page size.
type ConvOS struct {
	Geo   pagetable.Geometry
	Stats ConvStats
	alloc *phys.Bump
}

// NewConvOS builds the OS over capacity bytes of physical memory.
func NewConvOS(geo pagetable.Geometry, capacity uint64) *ConvOS {
	return &ConvOS{Geo: geo, alloc: phys.NewBump(0, capacity)}
}

// ConvProcess is one conventional process: a virtual address space managed
// with mmap-style bump allocation and a private page table.
type ConvProcess struct {
	os    *ConvOS
	Table *pagetable.Table
	// brk is the next free virtual address for Mmap.
	brk uint64
}

// NewProcess creates a process with an empty page table.
func (o *ConvOS) NewProcess() (*ConvProcess, error) {
	t, err := pagetable.New(o.Geo, o.alloc)
	if err != nil {
		return nil, err
	}
	return &ConvProcess{os: o, Table: t, brk: 0x10000000}, nil
}

// Mmap reserves a size-byte region of the virtual address space (no
// physical memory until first touch) and returns its base.
func (p *ConvProcess) Mmap(size uint64) uint64 {
	pageSize := p.os.Geo.PageSize()
	base := (p.brk + pageSize - 1) &^ (pageSize - 1)
	p.brk = base + size
	return base
}

// Touch performs demand paging for va: on the first access to a page the
// OS takes a minor fault, allocates a frame and maps it. It reports
// whether a fault occurred.
func (p *ConvProcess) Touch(va uint64) (fault bool, err error) {
	_, fault, err = p.TouchTranslate(va)
	return fault, err
}

// TouchTranslate is Touch that also returns the physical address of va,
// descending the page table once where Touch followed by Translate would
// descend twice.
//
//vbi:hotpath
func (p *ConvProcess) TouchTranslate(va uint64) (pa phys.Addr, fault bool, err error) {
	if pa, ok := p.Table.Lookup(va); ok {
		return pa, false, nil
	}
	pageSize := p.os.Geo.PageSize()
	frame, ok := p.os.alloc.AllocSized(pageSize)
	if !ok {
		return phys.NoAddr, false, errOutOfMemory
	}
	if err := p.Table.Map(va&^(pageSize-1), frame); err != nil {
		return phys.NoAddr, false, err
	}
	p.os.Stats.MinorFaults++
	p.os.Stats.PagesMapped++
	return frame + phys.Addr(va&(pageSize-1)), true, nil
}

// Translate returns the physical address of va, which must be mapped.
func (p *ConvProcess) Translate(va uint64) (phys.Addr, bool) {
	return p.Table.Lookup(va)
}
