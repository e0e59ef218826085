// Package phys models the physical memory space of the simulated machine and
// provides the allocators the Memory Translation Layer builds on:
//
//   - a bump allocator, which the conventional-VM OS models and Enigma
//     draw page-table nodes and frames from, and
//   - a buddy allocator with per-VB reservations implementing the
//     early-reservation mechanism of §5.3, including the three-level
//     allocation priority (blocks reserved for the requesting VB, then
//     unreserved blocks, then blocks reserved for other VBs).
package phys

import "fmt"

// Addr is a physical byte address.
type Addr uint64

// NoAddr is the sentinel "no physical address" value.
const NoAddr Addr = ^Addr(0)

// FrameShift is log2 of the base allocation granularity (4 KB, §4.5.2).
const FrameShift = 12

// FrameSize is the base allocation granularity in bytes.
const FrameSize = 1 << FrameShift

// Frame returns the frame-aligned address containing a.
func (a Addr) Frame() Addr { return a &^ (FrameSize - 1) }

// Line returns the 64-byte line-aligned address containing a.
func (a Addr) Line() Addr { return a &^ 63 }

func (a Addr) String() string {
	if a == NoAddr {
		return "phys(none)"
	}
	return fmt.Sprintf("phys(%#x)", uint64(a))
}

// Bump is a bump allocator over a physical range. The conventional OS
// models never free during a run (the paper's workload regions run to
// completion), so bump allocation keeps them minimal and deterministic. It
// hands out both page-table nodes and page-sized frames.
type Bump struct {
	next  Addr
	limit Addr
}

// NewBump allocates from [base, base+size).
func NewBump(base Addr, size uint64) *Bump {
	return &Bump{next: base, limit: base + Addr(size)}
}

// AllocSized returns a size-aligned block of size bytes (satisfies
// pagetable.FrameSource).
func (b *Bump) AllocSized(size uint64) (Addr, bool) {
	aligned := (b.next + Addr(size-1)) &^ Addr(size-1)
	if aligned+Addr(size) > b.limit {
		return NoAddr, false
	}
	b.next = aligned + Addr(size)
	return aligned, true
}

// Used returns the bytes consumed so far.
func (b *Bump) Used(base Addr) uint64 { return uint64(b.next - base) }
