package pagetable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vbi/internal/phys"
	"vbi/internal/tlb"
)

func newTable(t *testing.T, geo Geometry) (*Table, *phys.Bump) {
	t.Helper()
	alloc := phys.NewBump(0, 64<<20)
	tbl, err := New(geo, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, alloc
}

func TestMapLookup4K(t *testing.T) {
	tbl, alloc := newTable(t, Page4K)
	frame, _ := alloc.AllocSized(phys.FrameSize)
	if err := tbl.Map(0x7f00_0000_1000, frame); err != nil {
		t.Fatal(err)
	}
	pa, ok := tbl.Lookup(0x7f00_0000_1abc)
	if !ok || pa != frame+0xabc {
		t.Fatalf("Lookup = %v,%v want %v", pa, ok, frame+0xabc)
	}
	if _, ok := tbl.Lookup(0x7f00_0000_2000); ok {
		t.Fatal("lookup of unmapped page succeeded")
	}
}

func TestMapLookup2M(t *testing.T) {
	tbl, alloc := newTable(t, Page2M)
	frame, _ := alloc.AllocSized(phys.FrameSize)
	frame = frame.Frame() // 2M mapping demands 2M alignment in value space
	frame = 0             // use 0 which is 2M-aligned
	_ = alloc
	if err := tbl.Map(0x4000_0000, phys.Addr(frame)); err != nil {
		t.Fatal(err)
	}
	pa, ok := tbl.Lookup(0x4000_0000 + 0x12345)
	if !ok || pa != phys.Addr(frame)+0x12345 {
		t.Fatalf("Lookup = %v,%v", pa, ok)
	}
}

func TestMapUnaligned(t *testing.T) {
	tbl, _ := newTable(t, Page4K)
	if err := tbl.Map(0x1001, 0); err == nil {
		t.Fatal("unaligned va accepted")
	}
	if err := tbl.Map(0x1000, 0x10); err == nil {
		t.Fatal("unaligned frame accepted")
	}
}

func TestWalkAccessCount4K(t *testing.T) {
	tbl, alloc := newTable(t, Page4K)
	frame, _ := alloc.AllocSized(phys.FrameSize)
	va := uint64(0x5555_5555_5000)
	if err := tbl.Map(va, frame); err != nil {
		t.Fatal(err)
	}
	res := tbl.Walk(va, nil)
	if !res.OK {
		t.Fatal("walk faulted")
	}
	if len(res.Accesses) != 4 {
		t.Fatalf("4 KB walk touched %d PTEs, want 4", len(res.Accesses))
	}
	if res.Phys != frame {
		t.Fatalf("walk phys = %v, want %v", res.Phys, frame)
	}
}

func TestWalkAccessCount2M(t *testing.T) {
	tbl, _ := newTable(t, Page2M)
	va := uint64(0x4000_0000)
	if err := tbl.Map(va, 0); err != nil {
		t.Fatal(err)
	}
	res := tbl.Walk(va, nil)
	if !res.OK || len(res.Accesses) != 3 {
		t.Fatalf("2 MB walk = ok=%v accesses=%d, want ok,3", res.OK, len(res.Accesses))
	}
}

func TestWalkWithPWCSkipsLevels(t *testing.T) {
	tbl, alloc := newTable(t, Page4K)
	pwc := tlb.NewPWC("PWC", 32)
	frame, _ := alloc.AllocSized(phys.FrameSize)
	va := uint64(0x5555_5555_5000)
	if err := tbl.Map(va, frame); err != nil {
		t.Fatal(err)
	}
	r1 := tbl.Walk(va, pwc)
	if len(r1.Accesses) != 4 {
		t.Fatalf("cold walk = %d accesses", len(r1.Accesses))
	}
	// Second walk of the same page: PWC holds the leaf-level node, so only
	// the leaf PTE is read.
	r2 := tbl.Walk(va, pwc)
	if len(r2.Accesses) != 1 {
		t.Fatalf("warm walk = %d accesses, want 1", len(r2.Accesses))
	}
	if r2.Phys != r1.Phys {
		t.Fatal("warm walk disagrees with cold walk")
	}
	// A neighbouring page under the same leaf node also walks in 1 access.
	frame2, _ := alloc.AllocSized(phys.FrameSize)
	if err := tbl.Map(va+4096, frame2); err != nil {
		t.Fatal(err)
	}
	r3 := tbl.Walk(va+4096, pwc)
	if len(r3.Accesses) != 1 || !r3.OK {
		t.Fatalf("sibling walk = %d accesses ok=%v", len(r3.Accesses), r3.OK)
	}
}

func TestWalkFault(t *testing.T) {
	tbl, _ := newTable(t, Page4K)
	res := tbl.Walk(0xdead_0000, nil)
	if res.OK {
		t.Fatal("walk of empty table succeeded")
	}
	if len(res.Accesses) != 1 {
		t.Fatalf("faulting walk touched %d PTEs, want 1 (root entry empty)", len(res.Accesses))
	}
}

func TestUnmap(t *testing.T) {
	tbl, alloc := newTable(t, Page4K)
	frame, _ := alloc.AllocSized(phys.FrameSize)
	va := uint64(0x1000)
	tbl.Map(va, frame)
	if !tbl.Unmap(va) {
		t.Fatal("unmap failed")
	}
	if tbl.Unmap(va) {
		t.Fatal("double unmap succeeded")
	}
	if _, ok := tbl.Lookup(va); ok {
		t.Fatal("lookup after unmap succeeded")
	}
}

func TestMapLookupProperty(t *testing.T) {
	tbl, alloc := newTable(t, Page4K)
	mapped := map[uint64]phys.Addr{}
	f := func(vaRaw uint64) bool {
		va := (vaRaw % (1 << 47)) &^ 4095
		frame, ok := alloc.AllocSized(phys.FrameSize)
		if !ok {
			return true // allocator exhausted; vacuous
		}
		if err := tbl.Map(va, frame); err != nil {
			return false
		}
		mapped[va] = frame
		// All previously-mapped pages must still translate correctly.
		for v, f := range mapped {
			pa, ok := tbl.Lookup(v)
			if !ok || pa != f {
				return false
			}
			w := tbl.Walk(v, nil)
			if !w.OK || w.Phys != f {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRemapOverwrites(t *testing.T) {
	tbl, alloc := newTable(t, Page4K)
	f1, _ := alloc.AllocSized(phys.FrameSize)
	f2, _ := alloc.AllocSized(phys.FrameSize)
	tbl.Map(0x1000, f1)
	tbl.Map(0x1000, f2)
	pa, ok := tbl.Lookup(0x1000)
	if !ok || pa != f2 {
		t.Fatalf("Lookup after remap = %v, want %v", pa, f2)
	}
}

func TestMappedPagesAndNodeBytes(t *testing.T) {
	tbl, alloc := newTable(t, Page4K)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		frame, _ := alloc.AllocSized(phys.FrameSize)
		tbl.Map(uint64(rng.Intn(1<<20))<<12, frame)
	}
	if got := tbl.MappedPages(); got == 0 || got > 100 {
		t.Fatalf("MappedPages = %d", got)
	}
	if tbl.NodeBytes() < 4*phys.FrameSize {
		t.Fatalf("NodeBytes = %d, want at least 4 frames", tbl.NodeBytes())
	}
}
