package mtl

import (
	"testing"

	"vbi/internal/addr"
	"vbi/internal/prop"
)

func newTestMTL(t *testing.T, cfg Config) *MTL {
	t.Helper()
	return NewSimple(cfg, 64<<20) // 64 MB
}

func mustEnable(t *testing.T, m *MTL, c addr.SizeClass, vbid uint64, p prop.Props) addr.VBUID {
	t.Helper()
	u := addr.MakeVBUID(c, vbid)
	if err := m.Enable(u, p); err != nil {
		t.Fatal(err)
	}
	return u
}

func TestEnableDisable(t *testing.T) {
	m := newTestMTL(t, Config{})
	u := mustEnable(t, m, addr.Size128KB, 1, prop.LatencySensitive)
	if !m.Enabled(u) {
		t.Fatal("VB not enabled")
	}
	p, err := m.Props(u)
	if err != nil || !p.Has(prop.LatencySensitive) {
		t.Fatalf("props = %v, %v", p, err)
	}
	if err := m.Enable(u, 0); err == nil {
		t.Fatal("double enable succeeded")
	}
	if err := m.Disable(u); err != nil {
		t.Fatal(err)
	}
	if m.Enabled(u) {
		t.Fatal("VB still enabled after disable")
	}
	if err := m.Disable(u); err == nil {
		t.Fatal("double disable succeeded")
	}
}

func TestEnableInvalidVBUID(t *testing.T) {
	m := newTestMTL(t, Config{})
	bad := addr.VBUID(uint64(addr.Size128TB)<<61 | 1<<40)
	if err := m.Enable(bad, 0); err == nil {
		t.Fatal("invalid VBUID accepted")
	}
}

func TestRefCounting(t *testing.T) {
	m := newTestMTL(t, Config{})
	u := mustEnable(t, m, addr.Size4KB, 1, 0)
	if m.RefCount(u) != 0 {
		t.Fatal("fresh VB refcount != 0")
	}
	m.IncRef(u)
	m.IncRef(u)
	if m.RefCount(u) != 2 {
		t.Fatalf("refcount = %d", m.RefCount(u))
	}
	if n, _ := m.DecRef(u); n != 1 {
		t.Fatalf("DecRef = %d", n)
	}
	m.DecRef(u)
	if _, err := m.DecRef(u); err == nil {
		t.Fatal("refcount underflow not caught")
	}
}

func TestStaticKindPolicy(t *testing.T) {
	// §5.2: 4 KB direct, 128 KB/4 MB single-level, larger multi-level.
	cases := []struct {
		c    addr.SizeClass
		kind TransKind
	}{
		{addr.Size4KB, TransDirect},
		{addr.Size128KB, TransSingle},
		{addr.Size4MB, TransSingle},
		{addr.Size128MB, TransMulti},
		{addr.Size4GB, TransMulti},
	}
	for i, c := range cases {
		m := newTestMTL(t, Config{})
		u := mustEnable(t, m, c.c, uint64(i+1), 0)
		if err := m.Store(addr.Make(u, 0), []byte{1}); err != nil {
			t.Fatalf("%v: %v", c.c, err)
		}
		if got := m.Kind(u); got != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.c, got, c.kind)
		}
	}
}

func TestTableDepths(t *testing.T) {
	// §4.5.2/§5.2: table depth grows with size class but never exceeds 4.
	want := map[addr.SizeClass]int{
		addr.Size128KB: 1, // 5 bits of region index
		addr.Size4MB:   1, // 10 bits
		addr.Size128MB: 2, // 15 bits
		addr.Size4GB:   3, // 20 bits
		addr.Size128GB: 3, // 25 bits
		addr.Size4TB:   4, // 30 bits
		addr.Size128TB: 4, // 35 bits
	}
	for c, d := range want {
		if geo, _ := (&MTL{}).pageGeometry(c); geo.Levels != d {
			t.Errorf("pageGeometry(%v) has %d levels, want %d", c, geo.Levels, d)
		}
	}
}

func TestDisableFreesMemory(t *testing.T) {
	m := newTestMTL(t, Config{})
	free0 := m.FreeBytes()
	u := mustEnable(t, m, addr.Size4MB, 1, 0)
	buf := make([]byte, 4096)
	for off := uint64(0); off < 1<<20; off += 4096 {
		if err := m.Store(addr.Make(u, off), buf); err != nil {
			t.Fatal(err)
		}
	}
	if m.FreeBytes() >= free0 {
		t.Fatal("no memory consumed")
	}
	if err := m.Disable(u); err != nil {
		t.Fatal(err)
	}
	if m.FreeBytes() != free0 {
		t.Fatalf("leak: free %d != %d after disable", m.FreeBytes(), free0)
	}
}

func TestVITEntryAddrDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for c := addr.Size4KB; c < addr.NumSizeClasses; c++ {
		for vbid := uint64(0); vbid < 100; vbid++ {
			a := uint64(VITEntryAddr(addr.MakeVBUID(c, vbid)))
			if seen[a] {
				t.Fatalf("VIT entry address collision at %#x", a)
			}
			seen[a] = true
		}
	}
}

func TestZoneOf(t *testing.T) {
	zones := NewZones(map[string]uint64{"DRAM": 1 << 20, "PCM": 4 << 20}, []string{"DRAM", "PCM"})
	m := New(Config{}, zones)
	if zi := m.ZoneOf(0); zi != 0 {
		t.Errorf("ZoneOf(0) = %d", zi)
	}
	if zi := m.ZoneOf(1 << 20); zi != 1 {
		t.Errorf("ZoneOf(1MB) = %d", zi)
	}
	if zi := m.ZoneOf(5 << 20); zi != -1 {
		t.Errorf("ZoneOf(out of range) = %d", zi)
	}
}

// TestPlacementPolicy checks that a VB's first allocation lands in the
// home zone set for it before first touch.
func TestPlacementPolicy(t *testing.T) {
	zones := NewZones(map[string]uint64{"DRAM": 8 << 20, "PCM": 8 << 20}, []string{"DRAM", "PCM"})
	m := New(Config{}, zones)
	hot := addr.MakeVBUID(addr.Size128KB, 1)
	cold := addr.MakeVBUID(addr.Size128KB, 2)
	m.Enable(hot, prop.LatencySensitive)
	m.Enable(cold, 0)
	if err := m.SetHomeZone(cold, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.SetHomeZone(cold, 2); err == nil {
		t.Error("SetHomeZone accepted zone 2 of 2")
	}
	for _, u := range []addr.VBUID{hot, cold} {
		if _, err := m.TranslateWriteback(addr.Make(u, 0)); err != nil {
			t.Fatal(err)
		}
	}
	hb, _ := m.ZoneBytes(hot)
	cb, _ := m.ZoneBytes(cold)
	if hb[0] == 0 || hb[1] != 0 {
		t.Errorf("hot VB zone bytes = %v, want all in zone 0", hb)
	}
	if cb[1] == 0 || cb[0] != 0 {
		t.Errorf("cold VB zone bytes = %v, want all in zone 1", cb)
	}
}
