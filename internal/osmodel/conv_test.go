package osmodel

import (
	"testing"

	"vbi/internal/pagetable"
	"vbi/internal/phys"
)

func TestConvDemandPaging(t *testing.T) {
	os := NewConvOS(pagetable.Page4K, 64<<20)
	p, err := os.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	base := p.Mmap(1 << 20)
	fault, err := p.Touch(base + 123)
	if err != nil || !fault {
		t.Fatalf("first touch = %v,%v", fault, err)
	}
	fault, _ = p.Touch(base + 200) // same page
	if fault {
		t.Fatal("second touch of mapped page faulted")
	}
	fault, _ = p.Touch(base + 5000) // next page
	if !fault {
		t.Fatal("new page did not fault")
	}
	if os.Stats.MinorFaults != 2 {
		t.Fatalf("faults = %d", os.Stats.MinorFaults)
	}
	if pa, ok := p.Translate(base + 123); !ok || pa == phys.NoAddr {
		t.Fatalf("translate = %v,%v", pa, ok)
	}
}

// TestTouchTranslateMatchesTouchThenTranslate pins the single-descent path
// Perfect TLB uses against the Touch-then-Translate pair it replaced, on
// both page sizes, faulting and mapped pages alike.
func TestTouchTranslateMatchesTouchThenTranslate(t *testing.T) {
	for _, geo := range []pagetable.Geometry{pagetable.Page4K, pagetable.Page2M} {
		one, two := NewConvOS(geo, 256<<20), NewConvOS(geo, 256<<20)
		p1, _ := one.NewProcess()
		p2, _ := two.NewProcess()
		base := p1.Mmap(64 << 20)
		p2.Mmap(64 << 20)
		for _, off := range []uint64{123, 200, 5000, 3 << 20, 3<<20 + 77, 40 << 20, 5000} {
			pa, fault, err := p1.TouchTranslate(base + off)
			wantFault, wantErr := p2.Touch(base + off)
			wantPA, ok := p2.Translate(base + off)
			if err != nil || wantErr != nil || !ok || pa != wantPA || fault != wantFault {
				t.Fatalf("geo %d off %#x: TouchTranslate = %v,%v,%v; Touch+Translate = %v,%v,%v",
					geo.Levels, off, pa, fault, err, wantPA, wantFault, wantErr)
			}
		}
		if one.Stats != two.Stats {
			t.Fatalf("geo %d: stats %+v, want %+v", geo.Levels, one.Stats, two.Stats)
		}
	}
}

func TestConv2MPages(t *testing.T) {
	os := NewConvOS(pagetable.Page2M, 64<<20)
	p, _ := os.NewProcess()
	base := p.Mmap(8 << 20)
	p.Touch(base)
	fault, _ := p.Touch(base + 1<<20) // within the same 2 MB page
	if fault {
		t.Fatal("access within a mapped 2 MB page faulted")
	}
	fault, _ = p.Touch(base + 3<<20)
	if !fault {
		t.Fatal("new 2 MB page did not fault")
	}
	// A 2 MB mapping must translate with a 3-level walk.
	res := p.Table.Walk(base, nil)
	if !res.OK || len(res.Accesses) != 3 {
		t.Fatalf("2M walk = ok=%v accesses=%d", res.OK, len(res.Accesses))
	}
}

func TestConvMmapRegionsDisjoint(t *testing.T) {
	os := NewConvOS(pagetable.Page4K, 64<<20)
	p, _ := os.NewProcess()
	a := p.Mmap(1 << 20)
	b := p.Mmap(1 << 20)
	if b < a+1<<20 {
		t.Fatalf("regions overlap: %#x and %#x", a, b)
	}
}

func TestConvOutOfMemory(t *testing.T) {
	os := NewConvOS(pagetable.Page4K, 8<<12) // 8 frames; 1 goes to the root
	p, _ := os.NewProcess()
	base := p.Mmap(1 << 20)
	oom := false
	for i := uint64(0); i < 16; i++ {
		if _, err := p.Touch(base + i*4096); err != nil {
			oom = true
			break
		}
	}
	if !oom {
		t.Fatal("allocator never exhausted")
	}
}

func TestVMTwoLevelPaging(t *testing.T) {
	h := NewVMHost(pagetable.Page4K, 256<<20)
	g, err := h.NewGuest(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	base := g.Mmap(1 << 20)
	fault, err := g.Touch(base)
	if err != nil || !fault {
		t.Fatalf("guest touch = %v,%v", fault, err)
	}
	if h.Stats.GuestFaults == 0 || h.Stats.HostFaults == 0 {
		t.Fatalf("stats = %+v (both dimensions must fault)", h.Stats)
	}
	hpa, ok := g.Translate(base)
	if !ok {
		t.Fatal("translate failed")
	}

	// The nested walk reproduces the same translation and costs up to 24
	// accesses.
	res := g.Nested.Walk(base, nil, nil)
	if !res.OK || res.Phys != hpa {
		t.Fatalf("nested walk = %+v, want %v", res, hpa)
	}
	if len(res.Accesses) != 24 {
		t.Fatalf("nested walk accesses = %d, want 24", len(res.Accesses))
	}
}

func TestVM2MNestedWalk15(t *testing.T) {
	h := NewVMHost(pagetable.Page2M, 512<<20)
	g, err := h.NewGuest(128 << 20)
	if err != nil {
		t.Fatal(err)
	}
	base := g.Mmap(4 << 20)
	if _, err := g.Touch(base); err != nil {
		t.Fatal(err)
	}
	res := g.Nested.Walk(base, nil, nil)
	if !res.OK || len(res.Accesses) != 15 {
		t.Fatalf("2M nested walk = ok=%v accesses=%d, want 15", res.OK, len(res.Accesses))
	}
}

func TestVMGuestPTNodesBacked(t *testing.T) {
	h := NewVMHost(pagetable.Page4K, 256<<20)
	g, _ := h.NewGuest(64 << 20)
	// Touch addresses spread across the guest VA space to force several
	// guest PT nodes; every nested walk must succeed (nodes are backed).
	for i := uint64(0); i < 8; i++ {
		va := g.Mmap(1 << 30)
		if _, err := g.Touch(va); err != nil {
			t.Fatal(err)
		}
		if res := g.Nested.Walk(va, nil, nil); !res.OK {
			t.Fatalf("nested walk faulted at %#x", va)
		}
	}
}
