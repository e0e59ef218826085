package pagetable

import (
	"testing"

	"vbi/internal/phys"
	"vbi/internal/tlb"
)

const benchVA = 0x7f00_0000_0000

// benchTable returns a 4 KB table with benchVA mapped.
func benchTable(tb testing.TB) *Table {
	tb.Helper()
	alloc := phys.NewBump(0, 64<<20)
	t, err := New(Page4K, alloc)
	if err != nil {
		tb.Fatal(err)
	}
	frame, _ := alloc.AllocSized(phys.FrameSize)
	if err := t.Map(benchVA, frame); err != nil {
		tb.Fatal(err)
	}
	return t
}

// benchNested returns a 4 KB-by-4 KB nested table with benchVA mapped and
// every guest node backed, so an uncached walk takes all 24 accesses.
func benchNested(tb testing.TB) *NestedTable {
	tb.Helper()
	guest, err := New(Page4K, phys.NewBump(0, 64<<20))
	if err != nil {
		tb.Fatal(err)
	}
	host, err := New(Page4K, phys.NewBump(0, 256<<20))
	if err != nil {
		tb.Fatal(err)
	}
	if err := guest.Map(benchVA, 0x80_0000); err != nil {
		tb.Fatal(err)
	}
	for _, node := range guest.nodes {
		if err := host.Map(uint64(node), node+1<<30); err != nil {
			tb.Fatal(err)
		}
	}
	if err := host.Map(0x80_0000, 0x4080_0000); err != nil {
		tb.Fatal(err)
	}
	return &NestedTable{Guest: guest, Host: host}
}

// TestWalksDoNotAllocate is the allocation gate of the walk paths: once
// the scratch buffers are warm, native and 2D walks, with or without
// page-walk caches, and functional lookups allocate nothing.
func TestWalksDoNotAllocate(t *testing.T) {
	tbl := benchTable(t)
	pwc := tlb.NewPWC("PWC", 32)
	n := benchNested(t)
	hostPWC, guestPWC := tlb.NewPWC("PWC", 32), tlb.NewPWC("gPWC", 32)
	for _, c := range []struct {
		name string
		walk func()
	}{
		{"Table.Walk", func() { tbl.Walk(benchVA, nil) }},
		{"Table.Walk+PWC", func() { tbl.Walk(benchVA, pwc) }},
		{"Table.Walk fault", func() { tbl.Walk(benchVA+1<<30, pwc) }},
		{"Table.Lookup", func() { tbl.Lookup(benchVA + 0x123) }},
		{"NestedTable.Walk", func() { n.Walk(benchVA, nil, nil) }},
		{"NestedTable.Walk+PWCs", func() { n.Walk(benchVA, hostPWC, guestPWC) }},
		{"NestedTable.Walk+hPWC", func() { n.Walk(benchVA, hostPWC, nil) }},
		{"NestedTable.Walk faults", func() { n.Walk(benchVA+1<<30, hostPWC, guestPWC) }},
	} {
		c.walk() // grow the scratch buffer to its working size
		if allocs := testing.AllocsPerRun(100, c.walk); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, allocs)
		}
	}
}

func BenchmarkWalk4K(b *testing.B) {
	t := benchTable(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Walk(benchVA, nil)
	}
}

func BenchmarkWalk4KWithPWC(b *testing.B) {
	t := benchTable(b)
	pwc := tlb.NewPWC("PWC", 32)
	t.Walk(benchVA, pwc)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Walk(benchVA, pwc)
	}
}

func BenchmarkNestedWalk24(b *testing.B) {
	n := benchNested(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Walk(benchVA, nil, nil)
	}
}

// BenchmarkMapPrefill is the setup path: demand-paging prefill maps a
// contiguous 256 MB region page by page into a fresh table. It allocates
// by design (one entry array per node) and is not part of the
// zero-allocation gate.
func BenchmarkMapPrefill(b *testing.B) {
	const span = 256 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := New(Page4K, phys.NewBump(0, 64<<20))
		if err != nil {
			b.Fatal(err)
		}
		for off := uint64(0); off < span; off += 4096 {
			if err := t.Map(0x10000000+off, phys.Addr(1<<32+off)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPopulate is BenchmarkMapPrefill's range filled by Populate: one
// pass per leaf node, with every frame taken from the table's allocator.
func BenchmarkPopulate(b *testing.B) {
	const span = 256 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alloc := phys.NewBump(0, 512<<20)
		t, err := New(Page4K, alloc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := t.Populate(0x10000000, 0x10000000+span, alloc); err != nil {
			b.Fatal(err)
		}
	}
}
