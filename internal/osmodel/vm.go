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
	backed, err := g.Nested.Host.Populate(gpa, gpa+n, g.host.alloc)
	g.host.Stats.HostFaults += uint64(backed)
	return err
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
	pageVA := gva &^ (g.host.Geo.PageSize() - 1)
	if _, ok := g.Nested.Guest.Lookup(pageVA); ok {
		return false, nil
	}
	if err := g.fault(pageVA); err != nil {
		return false, err
	}
	return true, nil
}

// Populate demand-pages [base, end) at startup, exactly as Touch of base,
// base+PageSize, ... below end would, one guest leaf node at a time. Each
// node's run keeps the Touch loop's allocation order: its first page, if
// absent, takes the whole fault (data gPA, any guest nodes with their host
// backing, then the data gPA's backing); the guest table fills the rest
// from galloc in page order; then the host table backs those data gPAs,
// one contiguous span of galloc, before the next run. This is the Touch
// order because galloc and the host allocator are separate, and guest
// nodes, the only allocations that take from both, come at a run's first
// page.
func (g *GuestVM) Populate(base, end uint64) error {
	pageSize := g.host.Geo.PageSize()
	span := g.host.Geo.LeafSpan()
	guest := g.Nested.Guest
	for va := base; va < end; {
		page := va &^ (pageSize - 1)
		// next is the Touch loop's first address in the following node.
		next := va + (page | (span - 1)) + 1 - page
		if !guest.Present(page) {
			if err := g.fault(page); err != nil {
				return err
			}
			va += pageSize
		}
		// galloc.Used(0) is the next guest-physical address it hands out.
		first := g.galloc.Used(0)
		n, err := guest.Populate(va, min(end, next), g.galloc)
		g.host.Stats.GuestFaults += uint64(n)
		if n > 0 {
			first = (first + pageSize - 1) &^ (pageSize - 1)
			if err := g.backGPA(first, g.galloc.Used(0)-first); err != nil {
				return err
			}
		}
		if err != nil {
			return err
		}
		va = next
	}
	return nil
}

// fault takes the guest fault for the unmapped page at pageVA, in the
// order the golden results depend on: the data gPA first, then the guest
// table nodes with their host backing, then the host backing of the data
// gPA.
func (g *GuestVM) fault(pageVA uint64) error {
	pageSize := g.host.Geo.PageSize()
	gpa, ok := g.galloc.AllocSized(pageSize)
	if !ok {
		return fmt.Errorf("osmodel: guest memory exhausted")
	}
	if err := g.Nested.Guest.Map(pageVA, gpa); err != nil {
		return err
	}
	g.host.Stats.GuestFaults++
	return g.backGPA(uint64(gpa), pageSize)
}

// Translate fully translates a guest-virtual address to host-physical.
func (g *GuestVM) Translate(gva uint64) (phys.Addr, bool) {
	gpa, ok := g.Nested.Guest.Lookup(gva)
	if !ok {
		return phys.NoAddr, false
	}
	return g.Nested.Host.Lookup(uint64(gpa))
}
