package mtl

import (
	"fmt"
	"testing"

	"vbi/internal/addr"
	"vbi/internal/phys"
	"vbi/internal/tlb"
)

// staleOff is the in-region offset every probe uses, so a translation
// that kept its old frame cannot pass by coincidence of a zero offset.
const staleOff = 0x40

// assertTLBsCurrent probes both MTL TLB levels for every listed region of
// u and fails if either level translates the region anywhere but to its
// current frame. A miss is fine; a hit on a moved or copied-away frame is
// the stale translation this guards against.
func assertTLBsCurrent(t *testing.T, m *MTL, u addr.VBUID, regions uint64) {
	t.Helper()
	for r := uint64(0); r < regions; r++ {
		frame, ok := m.frameForTest(u, r)
		if !ok {
			continue
		}
		a := uint64(addr.Make(u, r*RegionSize+staleOff))
		want := uint64(frame) + staleOff
		for lvl, tl := range []*tlb.RangeTLB{m.tlbL1, m.tlbL2} {
			if e, hit := tl.Lookup(a); hit && e.Translate(a) != want {
				t.Errorf("%v region %d: MTL TLB L%d translates to %#x, current frame gives %#x",
					u, r, lvl+1, e.Translate(a), want)
			}
		}
	}
}

// translateRegion issues one timing-path translation of region r and
// checks it lands on the region's current frame.
func translateRegion(t *testing.T, m *MTL, u addr.VBUID, r uint64, write bool) Event {
	t.Helper()
	a := addr.Make(u, r*RegionSize+staleOff)
	var ev Event
	var err error
	if write {
		ev, err = m.TranslateWriteback(a)
	} else {
		ev, err = m.TranslateRead(a)
	}
	if err != nil {
		t.Fatal(err)
	}
	frame, ok := m.frameForTest(u, r)
	if !ok {
		t.Fatalf("%v region %d unallocated after translation", u, r)
	}
	if ev.Phys != frame+staleOff {
		t.Fatalf("%v region %d: Translate gave %#x, current frame gives %#x", u, r, ev.Phys, frame+staleOff)
	}
	return ev
}

// TestMigrateVBLeavesNoStaleTranslation migrates a VB out of PCM and
// checks that neither MTL TLB level still maps a region to its PCM frame:
// with the TLBs pre-warmed by translations of every region, and from a
// cold lookup. The first translation after the move must miss both levels
// and resolve to the DRAM frame; the one after that hits it.
func TestMigrateVBLeavesNoStaleTranslation(t *testing.T) {
	const regions = 4
	for _, warm := range []bool{true, false} {
		m := newHeteroMTL(t)
		m.Data = newDataStore()
		u := mustEnable(t, m, addr.Size128KB, 1, 0)
		if err := m.SetHomeZone(u, 1); err != nil {
			t.Fatal(err)
		}
		old := make([]phys.Addr, regions)
		for r := uint64(0); r < regions; r++ {
			if err := m.Store(addr.Make(u, r*RegionSize), []byte{byte(r + 1)}); err != nil {
				t.Fatal(err)
			}
			old[r], _ = m.frameForTest(u, r)
			if warm {
				translateRegion(t, m, u, r, false)
				if ev := translateRegion(t, m, u, r, false); !ev.TLBL1Hit {
					t.Fatalf("warm-up: region %d did not hit the MTL L1 TLB", r)
				}
			}
		}
		if _, err := m.MigrateVB(u, 0); err != nil {
			t.Fatal(err)
		}
		assertTLBsCurrent(t, m, u, regions)
		for r := uint64(0); r < regions; r++ {
			ev := translateRegion(t, m, u, r, false)
			if ev.TLBL1Hit || ev.TLBL2Hit {
				t.Errorf("warm=%v region %d: first translation after migration hit a TLB", warm, r)
			}
			if ev.Phys == old[r]+staleOff || m.ZoneOf(ev.Phys) != 0 {
				t.Errorf("warm=%v region %d: translated to %#x (old frame %#x), want a DRAM frame",
					warm, r, ev.Phys, old[r])
			}
			if ev := translateRegion(t, m, u, r, false); !ev.TLBL1Hit {
				t.Errorf("warm=%v region %d: second translation after migration missed", warm, r)
			}
		}
		assertTLBsCurrent(t, m, u, regions)
	}
}

// TestCOWLeavesNoStaleTranslation resolves a copy-on-write share and
// checks that the writer's MTL TLB entries no longer reach the shared
// frame while the other sharer's entries still do, pre-warmed and cold.
// The share is resolved both by a functional Store and through the timing
// path (a writeback into the shared region, which also re-inserts the new
// frame). It covers a table-mapped writer (the clone) and a direct-mapped
// writer (the source under early reservation, whose whole-VB entry must go
// when it downgrades).
func TestCOWLeavesNoStaleTranslation(t *testing.T) {
	const regions = 4
	for _, tc := range []struct {
		name        string
		cfg         Config
		writeSource bool
	}{
		{"clone-writes", Config{DelayedAlloc: true}, false},
		{"direct-source-writes", Config{DelayedAlloc: true, EarlyReservation: true}, true},
	} {
		for _, viaStore := range []bool{true, false} {
			for _, warm := range []bool{true, false} {
				m := newTestMTL(t, tc.cfg)
				src := mustEnable(t, m, addr.Size128KB, 1, 0)
				dst := mustEnable(t, m, addr.Size128KB, 2, 0)
				for r := uint64(0); r < regions; r++ {
					if err := m.Store(addr.Make(src, r*RegionSize), []byte{byte(r + 1)}); err != nil {
						t.Fatal(err)
					}
				}
				if tc.writeSource && m.Kind(src) != TransDirect {
					t.Fatalf("%s: source not direct-mapped", tc.name)
				}
				if err := m.Clone(src, dst); err != nil {
					t.Fatal(err)
				}
				if warm {
					for r := uint64(0); r < regions; r++ {
						translateRegion(t, m, src, r, false)
						translateRegion(t, m, dst, r, false)
					}
				}
				writer, other := dst, src
				if tc.writeSource {
					writer, other = src, dst
				}
				const r = 1
				shared, _ := m.frameForTest(writer, r)
				copies := m.Stats.COWCopies
				if viaStore {
					if err := m.Store(addr.Make(writer, r*RegionSize+staleOff), []byte{0xFF}); err != nil {
						t.Fatal(err)
					}
				} else {
					translateRegion(t, m, writer, r, true)
				}
				label := fmt.Sprintf("%s store=%v warm=%v", tc.name, viaStore, warm)
				if m.Stats.COWCopies != copies+1 {
					t.Fatalf("%s: the write did not resolve the share", label)
				}
				if f, _ := m.frameForTest(writer, r); f == shared {
					t.Fatalf("%s: the writer kept the shared frame", label)
				}
				if f, _ := m.frameForTest(other, r); f != shared {
					t.Fatalf("%s: the other sharer lost the shared frame", label)
				}
				assertTLBsCurrent(t, m, writer, regions)
				assertTLBsCurrent(t, m, other, regions)
				translateRegion(t, m, writer, r, false)
				if ev := translateRegion(t, m, writer, r, false); !ev.TLBL1Hit {
					t.Errorf("%s: repeated read after the copy missed the MTL L1 TLB", label)
				}
				translateRegion(t, m, other, r, false)
				assertTLBsCurrent(t, m, writer, regions)
				assertTLBsCurrent(t, m, other, regions)
			}
		}
	}
}
