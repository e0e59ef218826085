package phys

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// FuzzBuddyOps drives two allocators over a pool of eight record chunks
// through the same operations, decoded from the input four bytes each:
// kind and owner, an order or offset byte, and a 16-bit position. With bit
// 7 of the kind byte set, an Alloc becomes a burst of 1–64 order-0 Allocs
// for one owner and an AllocAt a run of 1–64 sequential order-0 AllocAts
// inside one of the owner's reservations. Otherwise AllocAt mostly targets
// frames within two of a chunk boundary, where a block's record and its
// enclosing block's record sit in different chunks.
//
// The eager allocator materializes any frame run after every call and has
// its invariants checked after every operation, each Unreserve against the
// shadow index of reference_test.go: it behaves as eager splitting. The
// lazy one is left alone, so its runs stay open across operations. Every
// returned address or bool and FreeBytes must agree call by call, and once
// the lazy allocator's run is materialized at the end, so must the states.
func FuzzBuddyOps(f *testing.F) {
	f.Add([]byte{3, 16, 0, 0, 1, 0, 0, 1, 1, 1, 0, 2, 1, 3, 0, 3, 4, 0, 0, 0})
	f.Add([]byte{0, 14, 0, 0, 1, 0x81, 0x40, 0, 2, 0, 0, 0, 11, 17, 0, 0, 9, 4, 7, 0, 12, 0, 0, 0})
	f.Add([]byte{3, 15, 0, 0, 11, 15, 0, 0, 1, 2, 1, 0, 9, 0, 2, 0, 4, 0, 0, 0, 12, 0, 0, 0, 2, 0, 0, 0})
	// Bursts from a reservation, then from unreserved memory, broken up by
	// another owner's Alloc, a Free and an Unreserve.
	f.Add([]byte{3, 16, 0, 0, 0x82, 39, 0, 0, 10, 0, 0, 0, 0x82, 63, 0, 0, 2, 5, 0, 0, 4, 0, 0, 0, 0x82, 20, 0, 0, 2, 0, 0, 0})
	// Sequential AllocAts from a reservation's base and from inside it,
	// then into frames already taken.
	f.Add([]byte{3, 7, 0, 0, 0x83, 0x54, 0, 0, 0x83, 10, 30, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0x83, 0x7f, 0, 0, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const frames = 8 * chunkFrames
		eager, lazy := NewBuddy(frames*FrameSize), NewBuddy(frames*FrameSize)
		owners := [4]Owner{vb(1), vb(2), vb(3), vb(4)}
		sh := shadowIndex{}
		var outstanding []blockKey
		var op []byte
		// agree materializes the eager allocator's run and compares the
		// two results of one call, and FreeBytes after it.
		agree := func(eagerGot, lazyGot any, call string, args ...any) {
			t.Helper()
			eager.settle()
			if eagerGot != lazyGot {
				t.Fatalf("op %x: %s: eager %v, lazy %v", op, fmt.Sprintf(call, args...), eagerGot, lazyGot)
			}
			if e, l := eager.FreeBytes(), lazy.FreeBytes(); e != l {
				t.Fatalf("op %x: after %s: FreeBytes eager %d, lazy %d", op, fmt.Sprintf(call, args...), e, l)
			}
		}
		type placed struct {
			base Addr
			ok   bool
		}
		alloc := func(owner Owner, order int) {
			base, ok := eager.Alloc(owner, order)
			lbase, lok := lazy.Alloc(owner, order)
			agree(placed{base, ok}, placed{lbase, lok}, "Alloc(%v, %d)", owner, order)
			if ok {
				sh.allocated(eager, base, order)
				outstanding = append(outstanding, blockKey{base, order})
			}
		}
		allocAt := func(owner Owner, at Addr, order int) {
			ok := eager.AllocAt(owner, at, order)
			agree(ok, lazy.AllocAt(owner, at, order), "AllocAt(%v, %v, %d)", owner, at, order)
			if ok {
				sh.allocated(eager, at, order)
				outstanding = append(outstanding, blockKey{at, order})
			}
		}
		for ; len(data) >= 4; data = data[4:] {
			op = data[:4]
			owner := owners[data[0]>>3&3]
			seq := data[0]&0x80 != 0
			arg, pos := int(data[1]), int(binary.LittleEndian.Uint16(data[2:4]))
			switch data[0] % 5 {
			case 0: // Alloc, up to orders whose halves span chunks
				if seq {
					for n := 1 + arg%64; n > 0; n-- {
						alloc(owner, 0)
					}
					break
				}
				alloc(owner, arg%(chunkShift+4))
			case 1: // AllocAt
				if seq {
					// Frames from the reservation's base, or from an
					// offset inside it, to at most its end.
					rs := eager.reservedAt[eager.ownerIdx[owner]]
					if len(rs) == 0 {
						break
					}
					r := rs[pos%len(rs)]
					size := uint64(1) << r.order
					off := uint64(pos) % size
					if arg&0x40 != 0 {
						off = 0
					}
					for end := min(off+uint64(1+arg&0x3f), size); off < end; off++ {
						allocAt(owner, r.base+Addr(off<<FrameShift), 0)
					}
					break
				}
				// Within two frames of a chunk boundary, or anywhere.
				fi := uint64(pos%9)*chunkFrames + uint64(arg%5) - 2
				if arg&0x80 != 0 {
					fi = uint64(pos)*(frames>>16) + uint64(arg&1)
				}
				order := arg >> 5 & 3
				fi &^= 1<<order - 1
				if fi >= frames {
					break
				}
				allocAt(owner, Addr(fi<<FrameShift), order)
			case 2: // Free
				if len(outstanding) == 0 {
					break
				}
				i := pos % len(outstanding)
				k := outstanding[i]
				outstanding[i] = outstanding[len(outstanding)-1]
				outstanding = outstanding[:len(outstanding)-1]
				sh.freed(eager, k.base, k.order)
				eager.Free(k.base, k.order)
				lazy.Free(k.base, k.order)
				agree(nil, nil, "Free(%v, %d)", k.base, k.order)
			case 3: // Reserve
				order := arg % (chunkShift + 4)
				base, ok := eager.Reserve(owner, order)
				lbase, lok := lazy.Reserve(owner, order)
				agree(placed{base, ok}, placed{lbase, lok}, "Reserve(%v, %d)", owner, order)
			case 4: // Unreserve
				unreserveAgainstShadow(t, eager, sh, owner)
				lazy.Unreserve(owner)
				agree(nil, nil, "Unreserve(%v)", owner)
			}
			if err := eager.CheckInvariants(); err != nil {
				t.Fatalf("op %x: %v", op, err)
			}
		}
		if err := lazy.CheckInvariants(); err != nil {
			t.Fatalf("lazy allocator at the end: %v", err)
		}
		if err := sameState(eager, lazy); err != nil {
			t.Fatalf("after materializing: %v", err)
		}
	})
}

// sameState reports the first difference between two allocators with no
// open run: block records, free bitmaps, counters, reserved ranges and
// owner indexes. The first-fit hints are left out: they are only lower
// bounds on the lowest free block, and eager splitting moves them as it
// records and takes the pieces a run never records. Owner records of
// frames where no block starts are left out too, since nothing reads them.
func sameState(a, b *Buddy) error {
	for fi := uint64(0); fi < a.nframes; fi++ {
		ma, mb := a.metaOf(fi), b.metaOf(fi)
		if ma != mb {
			return fmt.Errorf("frame %d: record %#x vs %#x", fi, ma, mb)
		}
		if oa, ob := a.ownerAt(fi), b.ownerAt(fi); ma&metaLive != 0 && oa != ob {
			return fmt.Errorf("frame %d: owner index %d vs %d", fi, oa, ob)
		}
	}
	for o := 0; o <= MaxOrder; o++ {
		if !slices.Equal(a.freeUnres[o], b.freeUnres[o]) || !slices.Equal(a.freeRes[o], b.freeRes[o]) {
			return fmt.Errorf("order %d: free bitmaps differ", o)
		}
	}
	switch {
	case a.cntUnres != b.cntUnres || a.cntRes != b.cntRes:
		return fmt.Errorf("free counts %v/%v vs %v/%v", a.cntUnres, a.cntRes, b.cntUnres, b.cntRes)
	case !slices.Equal(a.cntResOwn, b.cntResOwn):
		return fmt.Errorf("per-owner free counts differ")
	case a.freeBytes != b.freeBytes || a.reservedBytes != b.reservedBytes:
		return fmt.Errorf("free/reserved bytes %d/%d vs %d/%d", a.freeBytes, a.reservedBytes, b.freeBytes, b.reservedBytes)
	case len(a.ownerIdx) != len(b.ownerIdx) || len(a.reservedAt) != len(b.reservedAt):
		return fmt.Errorf("owner index tables differ in length")
	}
	for o, i := range a.ownerIdx {
		if b.ownerIdx[o] != i {
			return fmt.Errorf("owner %v: index %d vs %d", o, i, b.ownerIdx[o])
		}
	}
	for i := range a.reservedAt {
		if !slices.Equal(a.reservedAt[i], b.reservedAt[i]) {
			return fmt.Errorf("owner index %d: reserved ranges %v vs %v", i, a.reservedAt[i], b.reservedAt[i])
		}
	}
	return nil
}
