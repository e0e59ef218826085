package osmodel

import (
	"fmt"

	"vbi/internal/pagetable"
	"vbi/internal/phys"
)

// VMStats counts virtualization events.
type VMStats struct {
	GuestFaults uint64
	HostFaults  uint64
}

// VMHost models a hypervisor: it owns host physical memory and maintains
// one nested (EPT-style) table per guest mapping guest-physical to
// host-physical addresses. Combined with the guest's own page table this
// produces the two-dimensional walks whose cost motivates VBI (§1, §3.5).
type VMHost struct {
	Geo   pagetable.Geometry
	Stats VMStats
	alloc *phys.Bump
}

// NewVMHost builds a hypervisor over capacity bytes of host memory.
func NewVMHost(geo pagetable.Geometry, capacity uint64) *VMHost {
	return &VMHost{Geo: geo, alloc: phys.NewBump(0, capacity)}
}

// GuestVM is one virtual machine: an emulated guest-physical space, the
// guest OS's page table (whose nodes live in guest-physical memory), and
// the host table backing the guest-physical space.
type GuestVM struct {
	host   *VMHost
	Nested *pagetable.NestedTable
	// galloc allocates guest-physical frames.
	galloc *phys.Bump
	brk    uint64
}

// NewGuest creates a VM with guestMem bytes of emulated physical memory.
func (h *VMHost) NewGuest(guestMem uint64) (*GuestVM, error) {
	g := &GuestVM{host: h, galloc: phys.NewBump(0, guestMem), brk: 0x10000000}
	// The guest's page-table nodes are guest-physical frames; wrap the
	// allocator so every new node is immediately backed by host memory
	// (the hypervisor populates the EPT for guest PT pages on first use).
	host, err := pagetable.New(h.Geo, h.alloc)
	if err != nil {
		return nil, err
	}
	g.Nested = &pagetable.NestedTable{Host: host}
	guest, err := pagetable.New(h.Geo, backedAlloc{g})
	if err != nil {
		return nil, err
	}
	g.Nested.Guest = guest
	return g, nil
}

// backedAlloc allocates a guest-physical frame and backs it with host
// memory in one step (used for guest page-table nodes).
type backedAlloc struct{ g *GuestVM }

func (b backedAlloc) AllocSized(size uint64) (phys.Addr, bool) {
	gpa, ok := b.g.galloc.AllocSized(size)
	if !ok {
		return phys.NoAddr, false
	}
	if err := b.g.backGPA(uint64(gpa), size); err != nil {
		return phys.NoAddr, false
	}
	return gpa, true
}

// backGPA ensures [gpa, gpa+n) is mapped by the host table.
func (g *GuestVM) backGPA(gpa uint64, n uint64) error {
	pageSize := g.host.Geo.PageSize()
	for base := gpa &^ (pageSize - 1); base < gpa+n; base += pageSize {
		if _, ok := g.Nested.Host.Lookup(base); ok {
			continue
		}
		hpa, ok := g.host.alloc.AllocSized(pageSize)
		if !ok {
			return fmt.Errorf("osmodel: host memory exhausted")
		}
		if err := g.Nested.Host.Map(base, hpa); err != nil {
			return err
		}
		g.host.Stats.HostFaults++
	}
	return nil
}

// Mmap reserves guest-virtual address space.
func (g *GuestVM) Mmap(size uint64) uint64 {
	pageSize := g.host.Geo.PageSize()
	base := (g.brk + pageSize - 1) &^ (pageSize - 1)
	g.brk = base + size
	return base
}

// Touch performs two-level demand paging for the guest-virtual address:
// the guest OS faults in a guest-physical page, and the hypervisor backs
// it with host memory.
func (g *GuestVM) Touch(gva uint64) (fault bool, err error) {
	pageSize := g.host.Geo.PageSize()
	pageVA := gva &^ (pageSize - 1)
	if _, ok := g.Nested.Guest.Lookup(pageVA); ok {
		return false, nil
	}
	gpa, ok := g.galloc.AllocSized(pageSize)
	if !ok {
		return false, fmt.Errorf("osmodel: guest memory exhausted")
	}
	if err := g.Nested.Guest.Map(pageVA, gpa); err != nil {
		return false, err
	}
	g.host.Stats.GuestFaults++
	if err := g.backGPA(uint64(gpa), pageSize); err != nil {
		return false, err
	}
	return true, nil
}

// Translate fully translates a guest-virtual address to host-physical.
func (g *GuestVM) Translate(gva uint64) (phys.Addr, bool) {
	gpa, ok := g.Nested.Guest.Lookup(gva)
	if !ok {
		return phys.NoAddr, false
	}
	return g.Nested.Host.Lookup(uint64(gpa))
}
