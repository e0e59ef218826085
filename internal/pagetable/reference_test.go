package pagetable

import (
	"math/rand"
	"slices"
	"testing"

	"vbi/internal/phys"
	"vbi/internal/tlb"
)

// refTable is the map-backed page table the flat Table replaced, kept as a
// reference model: every PTE lives in one map keyed by its physical
// address, and walks build a fresh access slice. It is deliberately naive;
// the differential tests below require the flat table to agree with it on
// every result, access sequence and PWC statistic.
type refTable struct {
	geo   Geometry
	root  phys.Addr
	alloc FrameSource
	pte   map[phys.Addr]phys.Addr
	nodes []phys.Addr
}

func newRefTable(geo Geometry, alloc FrameSource) *refTable {
	root, ok := alloc.AllocSized(max(phys.FrameSize, uint64(entrySize)<<geo.RootBits))
	if !ok {
		panic("refTable: out of memory allocating root")
	}
	return &refTable{geo: geo, root: root, alloc: alloc,
		pte: map[phys.Addr]phys.Addr{}, nodes: []phys.Addr{root}}
}

func (r *refTable) indexAt(va uint64, k int) uint64 {
	width := uint(indexBits)
	if k == 0 {
		width = r.geo.RootBits
	}
	return (va >> (r.geo.PageShift + uint(indexBits*(r.geo.Levels-1-k)))) % (1 << width)
}

func (r *refTable) prefixAt(va uint64, k int) uint64 {
	return va >> (r.geo.PageShift + uint(indexBits*(r.geo.Levels-k)))
}

func (r *refTable) Map(va uint64, frame phys.Addr) {
	node := r.root
	for k := 0; k < r.geo.Levels-1; k++ {
		e := pteAddr(node, r.indexAt(va, k))
		next, ok := r.pte[e]
		if !ok {
			n, okAlloc := r.alloc.AllocSized(phys.FrameSize)
			if !okAlloc {
				panic("refTable: out of memory allocating node")
			}
			r.nodes = append(r.nodes, n)
			r.pte[e] = n
			next = n
		}
		node = next
	}
	r.pte[pteAddr(node, r.indexAt(va, r.geo.Levels-1))] = frame
}

func (r *refTable) nodeFor(va uint64) (phys.Addr, bool) {
	node := r.root
	for k := 0; k < r.geo.Levels-1; k++ {
		next, ok := r.pte[pteAddr(node, r.indexAt(va, k))]
		if !ok {
			return 0, false
		}
		node = next
	}
	return node, true
}

func (r *refTable) Unmap(va uint64) bool {
	node, ok := r.nodeFor(va)
	if !ok {
		return false
	}
	e := pteAddr(node, r.indexAt(va, r.geo.Levels-1))
	if _, ok := r.pte[e]; !ok {
		return false
	}
	delete(r.pte, e)
	return true
}

func (r *refTable) Lookup(va uint64) (phys.Addr, bool) {
	node, ok := r.nodeFor(va)
	if !ok {
		return phys.NoAddr, false
	}
	frame, ok := r.pte[pteAddr(node, r.indexAt(va, r.geo.Levels-1))]
	if !ok {
		return phys.NoAddr, false
	}
	return frame + phys.Addr(va&(r.geo.PageSize()-1)), true
}

// Walk is the old Table.Walk: PWC values are node physical addresses.
func (r *refTable) Walk(va uint64, pwc *tlb.PWC) WalkResult {
	node := r.root
	start := 0
	if pwc != nil {
		for k := r.geo.Levels - 1; k >= 1; k-- {
			if base, ok := pwc.Lookup(k, r.prefixAt(va, k)); ok {
				node = phys.Addr(base)
				start = k
				break
			}
		}
	}
	var res WalkResult
	for k := start; k < r.geo.Levels; k++ {
		e := pteAddr(node, r.indexAt(va, k))
		res.Accesses = append(res.Accesses, e)
		val, ok := r.pte[e]
		if !ok {
			return res
		}
		if k < r.geo.Levels-1 {
			node = val
			if pwc != nil {
				pwc.Insert(k+1, r.prefixAt(va, k+1), uint64(val))
			}
		} else {
			res.Phys = val + phys.Addr(va&(r.geo.PageSize()-1))
			res.OK = true
		}
	}
	return res
}

// MappedPages counts PTE values that are not table nodes, as the old
// table did. It equals the leaf count whenever no leaf maps a node frame.
func (r *refTable) MappedPages() int {
	nodeSet := map[phys.Addr]bool{}
	for _, n := range r.nodes {
		nodeSet[n] = true
	}
	n := 0
	for _, v := range r.pte {
		if !nodeSet[v] {
			n++
		}
	}
	return n
}

// refNestedWalk is the old NestedTable.Walk over two reference tables,
// concatenating the host sub-walks' fresh slices.
func refNestedWalk(g, h *refTable, gva uint64, hostPWC, guestPWC *tlb.PWC) NestedWalkResult {
	var res NestedWalkResult
	node := g.root
	start := 0
	if guestPWC != nil {
		for k := g.geo.Levels - 1; k >= 1; k-- {
			if base, ok := guestPWC.Lookup(k, g.prefixAt(gva, k)); ok {
				node = phys.Addr(base)
				start = k
				break
			}
		}
	}
	for k := start; k < g.geo.Levels; k++ {
		gpaOfPTE := pteAddr(node, g.indexAt(gva, k))
		hw := h.Walk(uint64(gpaOfPTE), hostPWC)
		res.Accesses = append(res.Accesses, hw.Accesses...)
		res.HostAccesses += len(hw.Accesses)
		if !hw.OK {
			return res
		}
		res.Accesses = append(res.Accesses, hw.Phys)
		res.GuestAccesses++
		val, ok := g.pte[gpaOfPTE]
		if !ok {
			return res
		}
		if k < g.geo.Levels-1 {
			node = val
			if guestPWC != nil {
				guestPWC.Insert(k+1, g.prefixAt(gva, k+1), uint64(val))
			}
		} else {
			gpa := val + phys.Addr(gva&(g.geo.PageSize()-1))
			hw := h.Walk(uint64(gpa), hostPWC)
			res.Accesses = append(res.Accesses, hw.Accesses...)
			res.HostAccesses += len(hw.Accesses)
			if !hw.OK {
				return res
			}
			res.Phys = hw.Phys
			res.OK = true
		}
	}
	return res
}

// dataFrame returns a page-aligned frame far above every node pool, so a
// leaf never maps a table node's frame.
func dataFrame(rng *rand.Rand, geo Geometry) phys.Addr {
	return phys.Addr(1<<40 + uint64(rng.Intn(1<<12))*geo.PageSize())
}

// randomVA draws a page-aligned address from a few clustered spans, so
// sequences share upper-level nodes, refill holes and also reach far
// unmapped space. Addresses stay inside the span the geometry indexes.
func randomVA(rng *rand.Rand, geo Geometry) uint64 {
	bases := [...]uint64{0x10000000, 0x7f00_0000_0000, 0x5555_0000_0000, 0x2_0000_0000}
	page := uint64(rng.Intn(1536))
	span := geo.PageShift + geo.RootBits + uint(indexBits*(geo.Levels-1))
	return (bases[rng.Intn(len(bases))] + page*geo.PageSize()) % (1 << span)
}

// mtlGeometries are the region-indexed shapes the MTL builds (§5.2):
// single-level tables from a one-entry root up to an 8-frame root, and
// multi-level tables with narrow roots, including the uniform 4-level
// ablation's.
var mtlGeometries = []Geometry{
	{Levels: 1, RootBits: 0}, {Levels: 1, RootBits: 5},
	{Levels: 1, RootBits: 10}, {Levels: 1, RootBits: 12},
	{Levels: 2, RootBits: 6}, {Levels: 3, RootBits: 3},
	{Levels: 4, RootBits: 0}, {Levels: 4, RootBits: 8},
}

func requireSameWalk(t *testing.T, what string, got, want WalkResult) {
	t.Helper()
	if !slices.Equal(got.Accesses, want.Accesses) || got.Phys != want.Phys || got.OK != want.OK {
		t.Fatalf("%s: flat = {%v %v %v}, reference = {%v %v %v}",
			what, got.Accesses, got.Phys, got.OK, want.Accesses, want.Phys, want.OK)
	}
}

func requireSameStats(t *testing.T, what string, got, want *tlb.PWC) {
	t.Helper()
	if got.Stats() != want.Stats() {
		t.Fatalf("%s: PWC stats flat %+v, reference %+v", what, got.Stats(), want.Stats())
	}
}

// TestTableMatchesMapReference drives the flat table and the map-backed
// reference through the same seeded Map/Unmap/remap sequence and requires
// identical lookups, presence checks, walks (with and without a PWC,
// including walks that fault on a hole), PWC statistics, node allocation
// and leaf counts, for the conventional geometries and every shape the
// MTL builds. Interleaved with the random operations are prefill-style
// sequential runs (Present, then Map if absent, page after page) that
// cross leaf-node boundaries, so the leaf memo Map and Present share is
// exercised against every other operation.
func TestTableMatchesMapReference(t *testing.T) {
	for _, geo := range append([]Geometry{Page4K, Page2M}, mtlGeometries...) {
		span := uint64(1) << (geo.PageShift + geo.RootBits + uint(indexBits*(geo.Levels-1)))
		leafSpan := geo.PageSize() << indexBits
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			flat, err := New(geo, phys.NewBump(0, 64<<20))
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefTable(geo, phys.NewBump(0, 64<<20))
			flatPWC, refPWC := tlb.NewPWC("PWC", 8), tlb.NewPWC("PWC", 8)
			for i := 0; i < 3000; i++ {
				va := randomVA(rng, geo)
				switch op := rng.Intn(50); {
				case op < 1: // sequential run across a leaf-node boundary
					start := va&^(leafSpan-1) - uint64(1+rng.Intn(1<<indexBits))*geo.PageSize()
					for n := 1<<indexBits + rng.Intn(1<<indexBits); n > 0; n-- {
						page := start % span
						start += geo.PageSize()
						_, want := ref.Lookup(page)
						if got := flat.Present(page); got != want {
							t.Fatalf("geo %+v seed %d op %d: Present(%#x) = %v, reference %v", geo, seed, i, page, got, want)
						}
						if !want {
							frame := dataFrame(rng, geo)
							if err := flat.Map(page, frame); err != nil {
								t.Fatal(err)
							}
							ref.Map(page, frame)
						}
					}
				case op < 25: // map or remap
					frame := dataFrame(rng, geo)
					if err := flat.Map(va, frame); err != nil {
						t.Fatal(err)
					}
					ref.Map(va, frame)
				case op < 35:
					if got, want := flat.Unmap(va), ref.Unmap(va); got != want {
						t.Fatalf("geo %+v seed %d op %d: Unmap(%#x) = %v, reference %v", geo, seed, i, va, got, want)
					}
				default:
					va += uint64(rng.Int63n(int64(geo.PageSize())))
					gotPA, gotOK := flat.Lookup(va)
					wantPA, wantOK := ref.Lookup(va)
					if gotPA != wantPA || gotOK != wantOK {
						t.Fatalf("Lookup(%#x) = %v,%v reference %v,%v", va, gotPA, gotOK, wantPA, wantOK)
					}
					if got := flat.Present(va); got != wantOK {
						t.Fatalf("Present(%#x) = %v, reference %v", va, got, wantOK)
					}
					requireSameWalk(t, "Walk", flat.Walk(va, nil), ref.Walk(va, nil))
					requireSameWalk(t, "Walk with PWC", flat.Walk(va, flatPWC), ref.Walk(va, refPWC))
					requireSameStats(t, "Walk", flatPWC, refPWC)
				}
			}
			if !slices.Equal(flat.nodes, ref.nodes) || flat.Root() != ref.root {
				t.Fatalf("geo %+v seed %d: node allocation diverged", geo, seed)
			}
			// A one-slot table may legitimately end empty; wider ones may not.
			oneSlot := geo.Levels == 1 && geo.RootBits == 0
			if got, want := flat.MappedPages(), ref.MappedPages(); got != want || (got == 0 && !oneSlot) {
				t.Fatalf("geo %+v seed %d: MappedPages = %d, reference %d", geo, seed, got, want)
			}
		}
	}
}

// TestNestedWalkMatchesMapReference does the same for 2D walks: a guest
// table whose nodes are backed (with deliberate holes) by a host table,
// under every PWC configuration conv.go uses. The guest side sees maps,
// unmaps and remaps; walks cover host faults on guest nodes and on data
// pages as well as guest faults.
func TestNestedWalkMatchesMapReference(t *testing.T) {
	type pwcs struct{ host, guest bool }
	for _, geo := range []Geometry{Page4K, Page2M} {
		for _, cfg := range []pwcs{{false, false}, {true, false}, {true, true}} {
			rng := rand.New(rand.NewSource(int64(geo.Levels)))
			var walks, faults int
			guest, err := New(geo, phys.NewBump(0, 64<<20))
			if err != nil {
				t.Fatal(err)
			}
			host, err := New(geo, phys.NewBump(0, 64<<20))
			if err != nil {
				t.Fatal(err)
			}
			flat := &NestedTable{Guest: guest, Host: host}
			refG := newRefTable(geo, phys.NewBump(0, 64<<20))
			refH := newRefTable(geo, phys.NewBump(0, 64<<20))
			var flatHost, refHost, flatGuest, refGuest *tlb.PWC
			if cfg.host {
				flatHost, refHost = tlb.NewPWC("PWC", 8), tlb.NewPWC("PWC", 8)
			}
			if cfg.guest {
				flatGuest, refGuest = tlb.NewPWC("gPWC", 8), tlb.NewPWC("gPWC", 8)
			}
			// backHost maps the host page of gpa in both host tables, except
			// for about one in ten pages, which stay holes.
			backed := map[uint64]bool{}
			backHost := func(gpa uint64) {
				base := gpa &^ (geo.PageSize() - 1)
				if _, seen := backed[base]; seen {
					return
				}
				backed[base] = rng.Intn(10) != 0
				if backed[base] {
					frame := dataFrame(rng, geo)
					if err := host.Map(base, frame); err != nil {
						t.Fatal(err)
					}
					refH.Map(base, frame)
				}
			}
			backHost(uint64(guest.Root()))
			for i := 0; i < 2000; i++ {
				gva := randomVA(rng, geo)
				switch op := rng.Intn(10); {
				case op < 5:
					gpa := phys.Addr(1<<32 + uint64(rng.Intn(1<<10))*geo.PageSize())
					before := len(guest.nodes)
					if err := guest.Map(gva, gpa); err != nil {
						t.Fatal(err)
					}
					refG.Map(gva, gpa)
					for _, n := range guest.nodes[before:] {
						backHost(uint64(n))
					}
					backHost(uint64(gpa))
				case op < 6:
					if got, want := guest.Unmap(gva), refG.Unmap(gva); got != want {
						t.Fatalf("guest Unmap(%#x) = %v, reference %v", gva, got, want)
					}
				default:
					gva += uint64(rng.Int63n(int64(geo.PageSize())))
					got := flat.Walk(gva, flatHost, flatGuest)
					want := refNestedWalk(refG, refH, gva, refHost, refGuest)
					requireSameWalk(t, "NestedTable.Walk", got.WalkResult, want.WalkResult)
					walks++
					if !got.OK {
						faults++
					}
					if got.GuestAccesses != want.GuestAccesses || got.HostAccesses != want.HostAccesses {
						t.Fatalf("breakdown %d+%d, reference %d+%d",
							got.GuestAccesses, got.HostAccesses, want.GuestAccesses, want.HostAccesses)
					}
					if cfg.host {
						requireSameStats(t, "host", flatHost, refHost)
					}
					if cfg.guest {
						requireSameStats(t, "guest", flatGuest, refGuest)
					}
				}
			}
			if faults == 0 || faults == walks {
				t.Fatalf("geo %d %+v: %d of %d walks faulted; want both outcomes", geo.Levels, cfg, faults, walks)
			}
		}
	}
}
