// Package pagetable implements the conventional-baseline translation
// machinery: x86-64-style radix page tables built in simulated physical
// memory, hardware walks accelerated by page-walk caches, and the
// two-dimensional (nested) walks of virtualized systems, which require up
// to 24 memory accesses for 4-level tables — the overhead VBI eliminates
// (§1, §3.5). The same radix table also backs the Memory Translation
// Layer's per-VB translation structures (§5.2), whose roots are sized by
// the VB's size class.
package pagetable

import (
	"fmt"

	"vbi/internal/phys"
	"vbi/internal/tlb"
)

// indexBits is the radix width per level (512 entries of 8 bytes = 4 KB
// nodes, as in x86-64).
const indexBits = 9

// entrySize is the size of one PTE in bytes.
const entrySize = 8

// maxLevels bounds the table depth: x86-64 walks 4 levels, and so does
// the MTL's largest (128 TB) size class.
const maxLevels = 4

// Geometry describes a page-table shape. Every level below the root
// consumes 9 index bits from 512-entry 4 KB nodes; the root consumes
// RootBits. A root wider than 512 entries spans 2^k contiguous frames.
type Geometry struct {
	Levels    int  // 1..4: 4 for 4 KB pages, 3 for 2 MB pages
	PageShift uint // 12 or 21 (0 for MTL tables, indexed by region)
	RootBits  uint // index bits consumed at the root
}

// Page4K is the 4-level, 4 KB-page geometry of x86-64.
var Page4K = Geometry{Levels: 4, PageShift: 12, RootBits: indexBits}

// Page2M is the 3-level, 2 MB-page geometry (leaf at the PD level).
var Page2M = Geometry{Levels: 3, PageShift: 21, RootBits: indexBits}

// PageSize returns the mapped page size in bytes.
func (g Geometry) PageSize() uint64 { return 1 << g.PageShift }

// rootBytes returns the size of the root node: its entries, rounded up to
// at least one frame.
func (g Geometry) rootBytes() uint64 {
	return max(phys.FrameSize, uint64(entrySize)<<g.RootBits)
}

// FrameSource supplies size-aligned blocks of size bytes (a power-of-two
// multiple of the 4 KB frame) for table nodes.
type FrameSource interface {
	AllocSized(size uint64) (phys.Addr, bool)
}

// Table is one radix page table instance living in a simulated physical
// address space. The table is functional: Map establishes real mappings and
// Walk retraces the exact PTE addresses hardware would touch, so the timing
// model can charge each access through the cache hierarchy.
//
// Node contents are flat per-node arrays (entries[ni], parallel to
// nodes[ni]) rather than a map keyed by PTE address: a walk descends by
// node index with plain array reads, and demand-paging prefill never
// rehashes. Interior entries hold the child's node index; leaf-level
// entries hold the mapped frame.
type Table struct {
	Geo   Geometry
	alloc FrameSource
	// nodes[ni] is the physical base of table node ni; nodes[0] is the root.
	nodes   []phys.Addr
	entries [][]uint64
	// mapped counts present leaf entries.
	mapped int
	// masks[k] selects the index bits consumed at level k: RootBits at
	// the root, 9 below it.
	masks [maxLevels]uint64
	// walkBuf is the access scratch behind WalkResult.Accesses; inline,
	// so a table costs no allocation beyond its nodes.
	walkBuf [maxLevels]phys.Addr
}

// absentEntry marks a non-present entry. It can never collide with a
// payload: child node indexes are small, and mapped frames are page-aligned
// physical addresses.
const absentEntry = ^uint64(0)

// New allocates an empty table (and its root node) from alloc.
func New(geo Geometry, alloc FrameSource) (*Table, error) {
	if geo.Levels < 1 || geo.Levels > maxLevels {
		return nil, fmt.Errorf("pagetable: %d levels outside 1..%d", geo.Levels, maxLevels)
	}
	t := &Table{Geo: geo, alloc: alloc}
	for k := range t.masks {
		t.masks[k] = 1<<indexBits - 1
	}
	t.masks[0] = 1<<geo.RootBits - 1
	if _, ok := t.newNode(geo.rootBytes(), 1<<geo.RootBits); !ok {
		return nil, fmt.Errorf("pagetable: out of memory allocating root")
	}
	return t, nil
}

// newNode allocates a table node of size bytes holding n entries, all
// absent, and returns its index.
func (t *Table) newNode(size uint64, n int) (uint64, bool) {
	base, ok := t.alloc.AllocSized(size)
	if !ok {
		return 0, false
	}
	e := make([]uint64, n)
	for i := range e {
		e[i] = absentEntry
	}
	t.nodes = append(t.nodes, base)
	t.entries = append(t.entries, e)
	return uint64(len(t.nodes) - 1), true
}

// Root returns the physical address of the root node (CR3 analogue).
func (t *Table) Root() phys.Addr { return t.nodes[0] }

// NodeBytes returns the memory consumed by table nodes.
func (t *Table) NodeBytes() uint64 {
	return t.Geo.rootBytes() + uint64(len(t.nodes)-1)*phys.FrameSize
}

// EachNode calls fn with the base and size of every table node, root
// first, then in allocation order (teardown hands them back with it).
func (t *Table) EachNode(fn func(base phys.Addr, size uint64)) {
	for i, base := range t.nodes {
		size := uint64(phys.FrameSize)
		if i == 0 {
			size = t.Geo.rootBytes()
		}
		fn(base, size)
	}
}

// indexAt returns the radix index consumed at walk level k (0 = root).
func (t *Table) indexAt(va uint64, k int) uint64 {
	shift := t.Geo.PageShift + uint(indexBits*(t.Geo.Levels-1-k))
	return (va >> shift) & t.masks[k]
}

// prefixAt returns the address prefix that identifies the node entered
// after consuming k levels (used as the PWC key for that node).
func (t *Table) prefixAt(va uint64, k int) uint64 {
	shift := t.Geo.PageShift + uint(indexBits*(t.Geo.Levels-k))
	return va >> shift
}

// pteAddr returns the physical address of the PTE at (node, index).
func pteAddr(node phys.Addr, index uint64) phys.Addr {
	return node + phys.Addr(index*entrySize)
}

// Map installs va -> frame. The va and frame must be page-aligned for the
// geometry. Intermediate nodes are allocated on demand.
func (t *Table) Map(va uint64, frame phys.Addr) error {
	mask := t.Geo.PageSize() - 1
	if va&mask != 0 || uint64(frame)&mask != 0 {
		return fmt.Errorf("pagetable: unaligned mapping %#x -> %v", va, frame)
	}
	ni := uint64(0)
	for k := 0; k < t.Geo.Levels-1; k++ {
		idx := t.indexAt(va, k)
		next := t.entries[ni][idx]
		if next == absentEntry {
			n, ok := t.newNode(phys.FrameSize, 1<<indexBits)
			if !ok {
				return fmt.Errorf("pagetable: out of memory allocating node")
			}
			t.entries[ni][idx] = n
			next = n
		}
		ni = next
	}
	leaf := &t.entries[ni][t.indexAt(va, t.Geo.Levels-1)]
	if *leaf == absentEntry {
		t.mapped++
	}
	*leaf = uint64(frame)
	return nil
}

// Unmap removes the leaf mapping for va (intermediate nodes are retained).
// It reports whether a mapping existed.
func (t *Table) Unmap(va uint64) bool {
	ni, ok := t.nodeFor(va)
	if !ok {
		return false
	}
	leaf := &t.entries[ni][t.indexAt(va, t.Geo.Levels-1)]
	if *leaf == absentEntry {
		return false
	}
	*leaf = absentEntry
	t.mapped--
	return true
}

// nodeFor returns the index of the leaf-level node covering va.
//
//vbi:hotpath
func (t *Table) nodeFor(va uint64) (uint64, bool) {
	ni := uint64(0)
	for k := 0; k < t.Geo.Levels-1; k++ {
		next := t.entries[ni][t.indexAt(va, k)]
		if next == absentEntry {
			return 0, false
		}
		ni = next
	}
	return ni, true
}

// Lookup functionally translates va without modelling any hardware state.
//
//vbi:hotpath
func (t *Table) Lookup(va uint64) (phys.Addr, bool) {
	ni, ok := t.nodeFor(va)
	if !ok {
		return phys.NoAddr, false
	}
	frame := t.entries[ni][t.indexAt(va, t.Geo.Levels-1)]
	if frame == absentEntry {
		return phys.NoAddr, false
	}
	return phys.Addr(frame) + phys.Addr(va&(t.Geo.PageSize()-1)), true
}

// WalkResult reports the outcome of a hardware walk.
type WalkResult struct {
	// Accesses lists, in order, the physical addresses of every PTE the
	// walker read. The timing model charges each through the hierarchy.
	// It aliases the walking table's scratch buffer: it is valid until the
	// table's next Walk, so consume it immediately and never retain it.
	Accesses []phys.Addr
	// Phys is the translated physical address (page base + offset).
	Phys phys.Addr
	// OK is false when the walk hit a hole (page fault).
	OK bool
}

// Walk performs a hardware page walk for va, consulting (and filling) the
// page-walk cache if one is supplied. The PWC caches the nodes below the
// root, letting the walker skip upper-level accesses (Barr et al. style
// "skip, don't walk").
//
//vbi:hotpath
func (t *Table) Walk(va uint64, pwc *tlb.PWC) WalkResult {
	acc, pa, ok := t.walk(va, pwc, t.walkBuf[:0])
	res := WalkResult{Accesses: acc}
	if ok {
		res.Phys, res.OK = pa, true
	}
	return res
}

// walk appends the PTE addresses a hardware walk of va reads to acc (a
// caller-owned scratch buffer) and returns it with the translation and
// whether va is mapped. A walk that finds a hole stops at the empty entry.
// PWC values are node indexes of this table, so a PWC must only ever serve
// one table.
//
//vbi:hotpath
func (t *Table) walk(va uint64, pwc *tlb.PWC, acc []phys.Addr) ([]phys.Addr, phys.Addr, bool) {
	ni := uint64(0)
	start := 0
	if pwc != nil {
		// Deepest cached node first.
		for k := t.Geo.Levels - 1; k >= 1; k-- {
			if n, ok := pwc.Lookup(k, t.prefixAt(va, k)); ok {
				ni, start = n, k
				break
			}
		}
	}
	for k := start; ; k++ {
		idx := t.indexAt(va, k)
		//vbi:allow hotalloc append into the caller's scratch buffer, bounded by the table depth; the owner retains the capacity across walks
		acc = append(acc, pteAddr(t.nodes[ni], idx))
		val := t.entries[ni][idx]
		if val == absentEntry {
			return acc, phys.NoAddr, false
		}
		if k == t.Geo.Levels-1 {
			return acc, phys.Addr(val) + phys.Addr(va&(t.Geo.PageSize()-1)), true
		}
		ni = val
		if pwc != nil {
			pwc.Insert(k+1, t.prefixAt(va, k+1), ni)
		}
	}
}

// MappedPages returns the number of present leaf mappings: Map of an
// unmapped page adds one, Unmap of a mapped page removes one, and a remap
// leaves the count unchanged.
func (t *Table) MappedPages() int { return t.mapped }
