package phys

import (
	"math/rand"
	"testing"
)

// shadowIndex is the per-owner index of reservation-backed allocated blocks
// that Buddy kept as a map before Unreserve walked reserved ranges. Filled
// from ownerOf after each allocation and emptied by Free, it names exactly
// the blocks Unreserve must retag to owner index 0.
type shadowIndex map[uint16]map[blockKey]struct{}

func (s shadowIndex) allocated(b *Buddy, base Addr, order int) {
	oi := b.ownerOf[uint64(base)>>FrameShift]
	if oi == 0 {
		return
	}
	if s[oi] == nil {
		s[oi] = map[blockKey]struct{}{}
	}
	s[oi][blockKey{base, order}] = struct{}{}
}

func (s shadowIndex) freed(b *Buddy, base Addr, order int) {
	delete(s[b.ownerOf[uint64(base)>>FrameShift]], blockKey{base, order})
}

// liveAllocated returns the owner index of every live allocated block.
func liveAllocated(b *Buddy) map[blockKey]uint16 {
	out := map[blockKey]uint16{}
	for fi := uint64(0); fi < b.nframes; fi++ {
		if m := b.meta[fi]; m&metaLive != 0 && m&metaFree == 0 {
			out[blockKey{Addr(fi << FrameShift), int(m & metaOrder)}] = b.ownerOf[fi]
		}
	}
	return out
}

// unreserveAgainstShadow calls b.Unreserve(owner) and checks it against
// the shadow: the blocks retagged to 0 are exactly the shadow's set for
// owner, no other block changes, no live allocated block keeps owner's
// index, and none of owner's reserved-free blocks survive.
func unreserveAgainstShadow(t *testing.T, b *Buddy, sh shadowIndex, owner Owner) {
	t.Helper()
	oi := b.ownerIdx[owner]
	before := liveAllocated(b)
	b.Unreserve(owner)
	after := liveAllocated(b)
	if len(after) != len(before) {
		t.Fatalf("Unreserve(%v) changed the allocated block count %d -> %d", owner, len(before), len(after))
	}
	retagged := 0
	for k, was := range before {
		now, ok := after[k]
		switch {
		case !ok:
			t.Fatalf("Unreserve(%v) removed allocated block %v", owner, k)
		case now == oi && oi != 0:
			t.Fatalf("Unreserve(%v) left allocated block %v with its owner index %d", owner, k, oi)
		case now == was:
		case now == 0 && was == oi:
			if _, ok := sh[oi][k]; !ok {
				t.Fatalf("Unreserve(%v) retagged %v, which the shadow index does not hold", owner, k)
			}
			retagged++
		default:
			t.Fatalf("Unreserve(%v) retagged %v from owner index %d to %d", owner, k, was, now)
		}
	}
	if retagged != len(sh[oi]) {
		t.Fatalf("Unreserve(%v) retagged %d blocks, shadow index holds %d", owner, retagged, len(sh[oi]))
	}
	delete(sh, oi)
	if oi != 0 {
		if len(b.reservedAt[oi]) != 0 {
			t.Fatalf("Unreserve(%v) kept %d reserved ranges", owner, len(b.reservedAt[oi]))
		}
		for o, n := range b.cntResOwn[oi] {
			if n != 0 {
				t.Fatalf("Unreserve(%v) kept %d reserved-free order-%d blocks", owner, n, o)
			}
		}
	}
}

// TestBuddyUnreserveMatchesShadowIndex drives Buddy and the shadow index
// through a seeded churn of reservations, allocations (own, unreserved and
// stolen, by Alloc and AllocAt), frees and unreservations, checking every
// Unreserve against the shadow and the invariants after every operation.
// The churn must reach each case the range walk has to get right.
func TestBuddyUnreserveMatchesShadowIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	b := NewBuddy(1 << 20) // 256 frames
	owners := []Owner{vb(1), vb(2), vb(3), vb(4)}
	sh := shadowIndex{}
	ranges := map[Owner][]blockKey{}
	unreserved := map[Owner]bool{}
	var outstanding []blockKey
	var seen struct {
		allocOwn, allocUnres, allocStolen     int
		allocAtOwn, allocAtStolen             int
		mergedAcross, reserveAfterUnreserve   int
		unreserveNoneAlloc, unreserveAllAlloc int
	}

	// rangeFrame picks a random frame inside one of owner's ranges.
	rangeFrame := func(owner Owner) (Addr, bool) {
		rs := ranges[owner]
		if len(rs) == 0 {
			return NoAddr, false
		}
		r := rs[rng.Intn(len(rs))]
		return r.base + Addr(rng.Intn(int(OrderBytes(r.order)>>FrameShift))*FrameSize), true
	}
	// mergedAcross reports whether a free block of owner spans more than
	// one of its reservations.
	mergedAcross := func(owner Owner) bool {
		oi := b.ownerIdx[owner]
		for _, r := range ranges[owner] {
			for o := r.order + 1; o <= MaxOrder; o++ {
				fi := uint64(r.base&^Addr(OrderBytes(o)-1)) >> FrameShift
				if fi < b.nframes && b.meta[fi] == metaLive|metaFree|uint8(o) && b.ownerOf[fi] == oi {
					return true
				}
			}
		}
		return false
	}

	for step := 0; step < 20000; step++ {
		owner := owners[rng.Intn(len(owners))]
		self := b.ownerIdx[owner]
		switch r := rng.Intn(20); {
		case r < 5: // Alloc
			order := rng.Intn(3)
			base, ok := b.Alloc(owner, order)
			if !ok {
				break
			}
			switch oi := b.ownerOf[uint64(base)>>FrameShift]; {
			case oi == 0:
				seen.allocUnres++
			case oi == self:
				seen.allocOwn++
			default:
				seen.allocStolen++
			}
			sh.allocated(b, base, order)
			outstanding = append(outstanding, blockKey{base, order})
		case r < 10: // AllocAt inside its own or another owner's reservation
			target := owner
			if rng.Intn(3) == 0 {
				target = owners[rng.Intn(len(owners))]
			}
			at, ok := rangeFrame(target)
			if !ok || !b.AllocAt(owner, at, 0) {
				break
			}
			switch oi := b.ownerOf[uint64(at)>>FrameShift]; {
			case oi == self && oi != 0:
				seen.allocAtOwn++
			case oi != 0:
				seen.allocAtStolen++
			}
			sh.allocated(b, at, 0)
			outstanding = append(outstanding, blockKey{at, 0})
		case r < 16: // Free
			if len(outstanding) == 0 {
				break
			}
			i := rng.Intn(len(outstanding))
			k := outstanding[i]
			outstanding[i] = outstanding[len(outstanding)-1]
			outstanding = outstanding[:len(outstanding)-1]
			sh.freed(b, k.base, k.order)
			b.Free(k.base, k.order)
			for _, o := range owners {
				if mergedAcross(o) {
					seen.mergedAcross++
				}
			}
		case r < 18: // Reserve
			order := rng.Intn(4)
			base, ok := b.Reserve(owner, order)
			if !ok {
				break
			}
			if unreserved[owner] {
				seen.reserveAfterUnreserve++
				delete(unreserved, owner)
			}
			ranges[owner] = append(ranges[owner], blockKey{base, order})
		default: // Unreserve
			if len(ranges[owner]) == 0 {
				break
			}
			if len(sh[self]) == 0 {
				seen.unreserveNoneAlloc++
			}
			allAlloc := true
			for _, n := range b.cntResOwn[self] {
				allAlloc = allAlloc && n == 0
			}
			if allAlloc {
				seen.unreserveAllAlloc++
			}
			unreserveAgainstShadow(t, b, sh, owner)
			delete(ranges, owner)
			unreserved[owner] = true
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for _, owner := range owners {
		unreserveAgainstShadow(t, b, sh, owner)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"Alloc from own reservation", seen.allocOwn},
		{"Alloc from unreserved memory", seen.allocUnres},
		{"Alloc stolen from another reservation", seen.allocStolen},
		{"AllocAt inside own reservation", seen.allocAtOwn},
		{"AllocAt inside another reservation", seen.allocAtStolen},
		{"free block merged across reservations", seen.mergedAcross},
		{"Reserve after Unreserve", seen.reserveAfterUnreserve},
		{"Unreserve with nothing allocated", seen.unreserveNoneAlloc},
		{"Unreserve with the reservation all used", seen.unreserveAllAlloc},
	} {
		if c.n == 0 {
			t.Errorf("churn never reached: %s", c.name)
		} else {
			t.Logf("%s: %d", c.name, c.n)
		}
	}
}
