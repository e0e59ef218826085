package phys

import "testing"

func TestBumpAllocator(t *testing.T) {
	b := NewBump(0, 1<<20)
	a1, ok := b.AllocSized(4096)
	if !ok || a1 != 0 {
		t.Fatalf("first alloc = %v,%v", a1, ok)
	}
	a2, ok := b.AllocSized(2 << 20)
	if ok {
		t.Fatalf("oversized alloc succeeded: %v", a2)
	}
	a3, ok := b.AllocSized(64 << 10)
	if !ok || uint64(a3)%(64<<10) != 0 {
		t.Fatalf("aligned alloc = %v,%v", a3, ok)
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x12345)
	if a.Frame() != 0x12000 {
		t.Errorf("Frame() = %#x", uint64(a.Frame()))
	}
	if a.Line() != 0x12340 {
		t.Errorf("Line() = %#x", uint64(a.Line()))
	}
	if NoAddr.String() != "phys(none)" {
		t.Errorf("NoAddr.String() = %q", NoAddr.String())
	}
	if a.String() != "phys(0x12345)" {
		t.Errorf("String() = %q", a.String())
	}
}

func TestOrderFor(t *testing.T) {
	cases := []struct {
		size  uint64
		order int
		ok    bool
	}{
		{1, 0, true},
		{FrameSize, 0, true},
		{FrameSize + 1, 1, true},
		{128 << 10, 5, true},
		{4 << 20, 10, true},
		{OrderBytes(MaxOrder), MaxOrder, true},
		{OrderBytes(MaxOrder) + 1, 0, false},
	}
	for _, c := range cases {
		o, ok := OrderFor(c.size)
		if ok != c.ok || (ok && o != c.order) {
			t.Errorf("OrderFor(%d) = %d,%v want %d,%v", c.size, o, ok, c.order, c.ok)
		}
	}
}
