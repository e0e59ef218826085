package osmodel

import (
	"slices"
	"testing"

	"vbi/internal/pagetable"
	"vbi/internal/phys"
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

// fuzzOpLen is the encoded size of one FuzzPopulate operation: a kind
// byte, then a 5-byte start offset and a 5-byte length.
const fuzzOpLen = 11

// fuzzOp encodes one FuzzPopulate operation (see decodeFuzzOp).
func fuzzOp(kind byte, start, length uint64) []byte {
	b := []byte{kind}
	for _, v := range []uint64{start, length} {
		b = append(b, byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return b
}

// decodeFuzzOp reads one operation over a mapping of span bytes. Kind bit 0
// picks a range (else a single touch at start), bits 1 and 2 snap the start
// and the end down to a page, and bits 3-5 shorten the length by powers of
// four, so short ranges inside one leaf node are common.
func decodeFuzzOp(b []byte, span, pageSize uint64) (touch bool, start, end uint64) {
	kind := b[0]
	u40 := func(p []byte) uint64 {
		return uint64(p[0])<<32 | uint64(p[1])<<24 | uint64(p[2])<<16 | uint64(p[3])<<8 | uint64(p[4])
	}
	start = u40(b[1:]) % span
	if kind&2 != 0 {
		start &^= pageSize - 1
	}
	end = start + u40(b[6:])%(span-start+1)>>(2*(kind>>3&7))
	if kind&4 != 0 && end&^(pageSize-1) > start {
		end &^= pageSize - 1
	}
	return kind&1 == 0, start, end
}

// demandPager is the address-space surface a process and a guest share.
type demandPager interface {
	Mmap(size uint64) uint64
	Touch(va uint64) (bool, error)
	Populate(base, end uint64) error
	Translate(va uint64) (phys.Addr, bool)
}

// sameTable requires got to have want's nodes, at the same addresses and
// in the same order, and the same count of mapped pages.
func sameTable(t *testing.T, name string, got, want *pagetable.Table) {
	t.Helper()
	nodes := func(tbl *pagetable.Table) []phys.Addr {
		var out []phys.Addr
		tbl.EachNode(func(base phys.Addr, _ uint64) { out = append(out, base) })
		return out
	}
	if got, want := got.NodeBytes(), want.NodeBytes(); got != want {
		t.Errorf("%s NodeBytes %d, Touch loop %d", name, got, want)
	}
	if got, want := nodes(got), nodes(want); !slices.Equal(got, want) {
		t.Errorf("%s nodes %v, Touch loop %v", name, got, want)
	}
	if got, want := got.MappedPages(), want.MappedPages(); got != want {
		t.Errorf("%s MappedPages %d, Touch loop %d", name, got, want)
	}
}

// FuzzPopulate checks Populate against the per-page Touch loop on random
// operation lists: single-page touches and ranges with unaligned starts
// and ends, over a mapping three leaf nodes and more wide, with 4 KB or
// 2 MB pages, for a native process or a guest. Every page must translate
// alike, and the tables, the allocators' next frames and the statistics
// must agree.
func FuzzPopulate(f *testing.F) {
	// An unaligned start on 2 MB pages: the Touch loop maps one page here,
	// and aligning the start down first would map two.
	unaligned := fuzzOp(1, 5000, 2<<20+100-5000)
	f.Add(true, false, unaligned)
	f.Add(true, true, unaligned)
	mixed := slices.Concat(fuzzOp(0, 7<<21+9, 0), fuzzOp(1, 3<<20+123, 5<<30),
		fuzzOp(3, 2<<20, 8<<20), fuzzOp(1|5<<3, 511<<12+1, 1<<30), fuzzOp(5, 77, 3<<20))
	f.Add(false, false, mixed)
	f.Add(false, true, mixed)
	f.Add(true, true, mixed)
	f.Fuzz(func(t *testing.T, huge, guest bool, ops []byte) {
		geo := pagetable.Page4K
		if huge {
			geo = pagetable.Page2M
		}
		pageSize := geo.PageSize()
		span := 3*geo.LeafSpan() + 77*pageSize
		var touched, populated demandPager
		var check func()
		if guest {
			touchHost, popHost := NewVMHost(geo, 1<<36), NewVMHost(geo, 1<<36)
			tg, err := touchHost.NewGuest(1 << 35)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := popHost.NewGuest(1 << 35)
			if err != nil {
				t.Fatal(err)
			}
			touched, populated = tg, pg
			check = func() {
				sameTable(t, "guest", pg.Nested.Guest, tg.Nested.Guest)
				sameTable(t, "host", pg.Nested.Host, tg.Nested.Host)
				if got, want := pg.galloc.Used(0), tg.galloc.Used(0); got != want {
					t.Errorf("next guest frame %#x, Touch loop %#x", got, want)
				}
				if got, want := popHost.alloc.Used(0), touchHost.alloc.Used(0); got != want {
					t.Errorf("next host frame %#x, Touch loop %#x", got, want)
				}
				if popHost.Stats != touchHost.Stats {
					t.Errorf("stats %+v, Touch loop %+v", popHost.Stats, touchHost.Stats)
				}
			}
		} else {
			touchOS, popOS := NewConvOS(geo, 1<<36), NewConvOS(geo, 1<<36)
			tp, err := touchOS.NewProcess()
			if err != nil {
				t.Fatal(err)
			}
			pp, err := popOS.NewProcess()
			if err != nil {
				t.Fatal(err)
			}
			touched, populated = tp, pp
			check = func() {
				sameTable(t, "table", pp.Table, tp.Table)
				if got, want := popOS.alloc.Used(0), touchOS.alloc.Used(0); got != want {
					t.Errorf("next frame %#x, Touch loop %#x", got, want)
				}
				if popOS.Stats != touchOS.Stats {
					t.Errorf("stats %+v, Touch loop %+v", popOS.Stats, touchOS.Stats)
				}
			}
		}
		base := touched.Mmap(span)
		populated.Mmap(span)
		for n := 0; len(ops) >= fuzzOpLen && n < 16; n++ {
			touch, start, end := decodeFuzzOp(ops, span, pageSize)
			ops = ops[fuzzOpLen:]
			if touch {
				if _, err := touched.Touch(base + start); err != nil {
					t.Fatal(err)
				}
				if _, err := populated.Touch(base + start); err != nil {
					t.Fatal(err)
				}
				continue
			}
			for va := base + start; va < base+end; va += pageSize {
				if _, err := touched.Touch(va); err != nil {
					t.Fatal(err)
				}
			}
			if err := populated.Populate(base+start, base+end); err != nil {
				t.Fatal(err)
			}
		}
		for va := base; va < base+span; va += pageSize {
			got, gotOK := populated.Translate(va)
			want, wantOK := touched.Translate(va)
			if got != want || gotOK != wantOK {
				t.Fatalf("page %#x translates to %v,%v, Touch loop %v,%v", va, got, gotOK, want, wantOK)
			}
		}
		check()
	})
}
