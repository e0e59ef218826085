package pagetable

import (
	"testing"

	"vbi/internal/phys"
	"vbi/internal/tlb"
)

// buildNested constructs a guest table (in a guest-physical space) fully
// backed by a host table, and maps gva -> gpa -> hpa.
func buildNested(t *testing.T, geoG, geoH Geometry) (*NestedTable, uint64, phys.Addr) {
	t.Helper()
	guestPhys := phys.NewBump(0, 64<<20)
	hostPhys := phys.NewBump(0, 256<<20)
	guest, err := New(geoG, guestPhys)
	if err != nil {
		t.Fatal(err)
	}
	host, err := New(geoH, hostPhys)
	if err != nil {
		t.Fatal(err)
	}
	n := &NestedTable{Guest: guest, Host: host}

	gva := uint64(0x7f12_3456_7000) &^ (geoG.PageSize() - 1)
	gpaData := phys.Addr(0x80_0000) &^ phys.Addr(geoG.PageSize()-1)
	if err := guest.Map(gva, gpaData); err != nil {
		t.Fatal(err)
	}

	// Back every guest-physical page we use (guest PT nodes + data) with
	// host mappings at identity+1GB for recognisability.
	backing := func(gpa phys.Addr) phys.Addr { return gpa + 1<<30 }
	hostPage := phys.Addr(geoH.PageSize())
	seen := map[phys.Addr]bool{}
	mapHost := func(gpa phys.Addr) {
		base := gpa &^ (hostPage - 1)
		if seen[base] {
			return
		}
		seen[base] = true
		if err := host.Map(uint64(base), backing(base)); err != nil {
			t.Fatal(err)
		}
	}
	for _, node := range guest.nodes {
		mapHost(node)
	}
	mapHost(gpaData)
	wantHPA := backing(gpaData&^(hostPage-1)) + (gpaData & (hostPage - 1))
	return n, gva, wantHPA
}

func TestNestedWalk24Accesses(t *testing.T) {
	n, gva, wantHPA := buildNested(t, Page4K, Page4K)
	if n.MaxAccesses() != 24 {
		t.Fatalf("MaxAccesses = %d, want 24", n.MaxAccesses())
	}
	res := n.Walk(gva, nil, nil)
	if !res.OK {
		t.Fatal("nested walk faulted")
	}
	// The paper's headline number: up to 24 accesses for x86-64 4-level
	// tables (§1). Exactly 24 when nothing is cached.
	if len(res.Accesses) != 24 {
		t.Fatalf("cold 2D walk = %d accesses, want 24", len(res.Accesses))
	}
	if res.GuestAccesses != 4 || res.HostAccesses != 20 {
		t.Fatalf("breakdown = %d guest + %d host", res.GuestAccesses, res.HostAccesses)
	}
	if res.Phys != wantHPA {
		t.Fatalf("phys = %v, want %v", res.Phys, wantHPA)
	}
}

func TestNestedWalk2M15Accesses(t *testing.T) {
	n, gva, _ := buildNested(t, Page2M, Page2M)
	if n.MaxAccesses() != 15 {
		t.Fatalf("MaxAccesses = %d, want 15", n.MaxAccesses())
	}
	res := n.Walk(gva, nil, nil)
	if !res.OK || len(res.Accesses) != 15 {
		t.Fatalf("cold 2M 2D walk = ok=%v accesses=%d, want 15", res.OK, len(res.Accesses))
	}
}

func TestNestedWalkWithCaches(t *testing.T) {
	n, gva, wantHPA := buildNested(t, Page4K, Page4K)
	hostPWC := tlb.NewPWC("hPWC", 32)
	guestPWC := tlb.NewPWC("gPWC", 32)
	// Even the first walk benefits from the PWCs: the five host walks share
	// upper-level nodes, so the host PWC warms up intra-walk.
	cold := n.Walk(gva, hostPWC, guestPWC)
	if !cold.OK || len(cold.Accesses) >= 24 || len(cold.Accesses) <= 3 {
		t.Fatalf("cold walk with PWCs = %d accesses, want between 4 and 23", len(cold.Accesses))
	}
	warm := n.Walk(gva, hostPWC, guestPWC)
	if !warm.OK {
		t.Fatal("warm walk faulted")
	}
	if len(warm.Accesses) >= len(cold.Accesses) {
		t.Fatalf("warm walk (%d accesses) not faster than cold (%d)",
			len(warm.Accesses), len(cold.Accesses))
	}
	// Fully warm caches: guest PWC skips to the guest leaf (1 guest PTE
	// read needing 1 host walk of 1 access thanks to host PWC) + final host
	// walk of 1 access = 3.
	if len(warm.Accesses) != 3 {
		t.Fatalf("warm walk = %d accesses, want 3", len(warm.Accesses))
	}
	if warm.Phys != wantHPA {
		t.Fatal("warm walk produced wrong translation")
	}
}

func TestNestedWalkGuestFault(t *testing.T) {
	n, gva, _ := buildNested(t, Page4K, Page4K)
	res := n.Walk(gva+1<<30, nil, nil) // far away: guest hole
	if res.OK {
		t.Fatal("walk of unmapped gva succeeded")
	}
}
