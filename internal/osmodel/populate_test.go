package osmodel

import (
	"testing"

	"vbi/internal/pagetable"
)

// populateRanges are offsets into a 64 MB mapping, prefilled in order. They
// cross 4 KB-page leaf nodes (2 MB each), start unaligned, overlap earlier
// ranges (so some pages are already present) and leave holes.
var populateRanges = [][2]uint64{
	{0, 5<<20 + 123},
	{3 << 20, 9 << 20},
	{12<<20 + 5000, 12<<20 + 5001},
	{30<<20 - 4096*7, 34 << 20},
	{8 << 20, 8 << 20}, // empty
	{40<<20 + 77, 47<<20 + 4095},
	{0, 1 << 20},
}

// populateSpan is the size of the mapping the ranges index.
const populateSpan = 64 << 20

// populateTouches are single pages demand-paged before the ranges, as the
// stepping path would, so Populate meets pages mapped out of order.
var populateTouches = []uint64{33 << 20, 4096 * 3, 44<<20 + 9}

// prefillBoth applies populateTouches, then populateRanges, to two
// identical address spaces at base: one through touch alone, page by page,
// the other through touch for the single pages and populate for the ranges.
func prefillBoth(t *testing.T, base, pageSize uint64,
	touchA, touchB func(va uint64) (bool, error), populateB func(base, end uint64) error) {
	t.Helper()
	for _, off := range populateTouches {
		if _, err := touchA(base + off); err != nil {
			t.Fatal(err)
		}
		if _, err := touchB(base + off); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range populateRanges {
		for va := base + r[0]; va < base+r[1]; va += pageSize {
			if _, err := touchA(va); err != nil {
				t.Fatal(err)
			}
		}
		if err := populateB(base+r[0], base+r[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPopulateMatchesTouchLoop builds two identical processes, prefills
// one with the per-page Touch loop Populate replaced and the other with
// Populate, and requires the same translation for every page of the
// mapping, the same table and allocator state, and the same statistics.
func TestPopulateMatchesTouchLoop(t *testing.T) {
	for _, geo := range []pagetable.Geometry{pagetable.Page4K, pagetable.Page2M} {
		pageSize := geo.PageSize()
		touchOS, popOS := NewConvOS(geo, 256<<20), NewConvOS(geo, 256<<20)
		touched, err := touchOS.NewProcess()
		if err != nil {
			t.Fatal(err)
		}
		populated, err := popOS.NewProcess()
		if err != nil {
			t.Fatal(err)
		}
		base := touched.Mmap(populateSpan)
		populated.Mmap(populateSpan)
		prefillBoth(t, base, pageSize, touched.Touch, populated.Touch, populated.Populate)
		for va := base; va < base+populateSpan; va += pageSize {
			got, gotOK := populated.Translate(va)
			want, wantOK := touched.Translate(va)
			if got != want || gotOK != wantOK {
				t.Fatalf("geo %d: page %#x translates to %v,%v, Touch loop %v,%v",
					geo.Levels, va, got, gotOK, want, wantOK)
			}
		}
		if got, want := populated.Table.NodeBytes(), touched.Table.NodeBytes(); got != want {
			t.Errorf("geo %d: NodeBytes %d, Touch loop %d", geo.Levels, got, want)
		}
		if got, want := populated.Table.MappedPages(), touched.Table.MappedPages(); got != want {
			t.Errorf("geo %d: MappedPages %d, Touch loop %d", geo.Levels, got, want)
		}
		if got, want := popOS.alloc.Used(0), touchOS.alloc.Used(0); got != want {
			t.Errorf("geo %d: next frame %#x, Touch loop %#x", geo.Levels, got, want)
		}
		if popOS.Stats != touchOS.Stats {
			t.Errorf("geo %d: stats %+v, Touch loop %+v", geo.Levels, popOS.Stats, touchOS.Stats)
		}
	}
}

// TestGuestPopulateMatchesTouchLoop is TestPopulateMatchesTouchLoop for a
// virtual machine: the guest and host tables, the guest-physical and host
// allocators and the fault counts must all agree.
func TestGuestPopulateMatchesTouchLoop(t *testing.T) {
	for _, geo := range []pagetable.Geometry{pagetable.Page4K, pagetable.Page2M} {
		pageSize := geo.PageSize()
		touchHost, popHost := NewVMHost(geo, 1<<30), NewVMHost(geo, 1<<30)
		touched, err := touchHost.NewGuest(256 << 20)
		if err != nil {
			t.Fatal(err)
		}
		populated, err := popHost.NewGuest(256 << 20)
		if err != nil {
			t.Fatal(err)
		}
		base := touched.Mmap(populateSpan)
		populated.Mmap(populateSpan)
		prefillBoth(t, base, pageSize, touched.Touch, populated.Touch, populated.Populate)
		for va := base; va < base+populateSpan; va += pageSize {
			got, gotOK := populated.Translate(va)
			want, wantOK := touched.Translate(va)
			if got != want || gotOK != wantOK {
				t.Fatalf("geo %d: page %#x translates to %v,%v, Touch loop %v,%v",
					geo.Levels, va, got, gotOK, want, wantOK)
			}
		}
		for _, tbl := range []struct {
			name      string
			got, want *pagetable.Table
		}{
			{"guest", populated.Nested.Guest, touched.Nested.Guest},
			{"host", populated.Nested.Host, touched.Nested.Host},
		} {
			if got, want := tbl.got.NodeBytes(), tbl.want.NodeBytes(); got != want {
				t.Errorf("geo %d: %s NodeBytes %d, Touch loop %d", geo.Levels, tbl.name, got, want)
			}
			if got, want := tbl.got.MappedPages(), tbl.want.MappedPages(); got != want {
				t.Errorf("geo %d: %s MappedPages %d, Touch loop %d", geo.Levels, tbl.name, got, want)
			}
		}
		if got, want := populated.galloc.Used(0), touched.galloc.Used(0); got != want {
			t.Errorf("geo %d: next guest frame %#x, Touch loop %#x", geo.Levels, got, want)
		}
		if got, want := popHost.alloc.Used(0), touchHost.alloc.Used(0); got != want {
			t.Errorf("geo %d: next host frame %#x, Touch loop %#x", geo.Levels, got, want)
		}
		if popHost.Stats != touchHost.Stats {
			t.Errorf("geo %d: stats %+v, Touch loop %+v", geo.Levels, popHost.Stats, touchHost.Stats)
		}
	}
}
