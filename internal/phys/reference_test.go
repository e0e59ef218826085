package phys

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// shadowIndex is the per-owner index of reservation-backed allocated blocks
// that Buddy kept as a map before Unreserve walked reserved ranges. Filled
// from the owner records after each allocation and emptied by Free, it names exactly
// the blocks Unreserve must retag to owner index 0.
type shadowIndex map[uint16]map[blockKey]struct{}

func (s shadowIndex) allocated(b *Buddy, base Addr, order int) {
	oi := b.ownerAt(uint64(base) >> FrameShift)
	if oi == 0 {
		return
	}
	if s[oi] == nil {
		s[oi] = map[blockKey]struct{}{}
	}
	s[oi][blockKey{base, order}] = struct{}{}
}

func (s shadowIndex) freed(b *Buddy, base Addr, order int) {
	delete(s[b.ownerAt(uint64(base)>>FrameShift)], blockKey{base, order})
}

// liveAllocated returns the owner index of every live allocated block.
func liveAllocated(b *Buddy) map[blockKey]uint16 {
	out := map[blockKey]uint16{}
	for fi := uint64(0); fi < b.nframes; fi++ {
		if m := b.metaOf(fi); m&metaLive != 0 && m&metaFree == 0 {
			out[blockKey{Addr(fi << FrameShift), int(m & metaOrder)}] = b.ownerAt(fi)
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
				if fi < b.nframes && b.metaOf(fi) == metaLive|metaFree|uint8(o) && b.ownerAt(fi) == oi {
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
			switch oi := b.ownerAt(uint64(base) >> FrameShift); {
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
			switch oi := b.ownerAt(uint64(at) >> FrameShift); {
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

// checkInvariantsDense is CheckInvariants as it was before the records were
// chunked: it visits every frame of the pool and marks reserved-range
// ownership in an nframes-sized array. It is the oracle for which states
// the sparse check must reject.
func checkInvariantsDense(b *Buddy) error {
	var free, reserved, total uint64
	var cntUnres, cntRes [MaxOrder + 1]int
	prevEnd := uint64(0)
	for fi := uint64(0); fi < b.nframes; fi++ {
		m := b.metaOf(fi)
		if m&metaLive == 0 {
			continue
		}
		o := int(m & metaOrder)
		base := fi << FrameShift
		size := OrderBytes(o)
		if base%size != 0 {
			return fmt.Errorf("block %v order %d misaligned", Addr(base), o)
		}
		if base < prevEnd {
			return fmt.Errorf("blocks overlap at %v", Addr(base))
		}
		if base+size > b.nframes<<FrameShift {
			return fmt.Errorf("block %v order %d extends beyond the pool", Addr(base), o)
		}
		prevEnd = base + size
		total += size
		if m&metaFree != 0 {
			bi := int(fi >> uint(o))
			free += size
			if b.ownerAt(fi) == 0 {
				cntUnres[o]++
				if b.freeUnres[o][bi>>6]&(1<<(uint(bi)&63)) == 0 {
					return fmt.Errorf("free block %v order %d missing from unreserved bitmap", Addr(base), o)
				}
			} else {
				cntRes[o]++
				reserved += size
				if b.freeRes[o][bi>>6]&(1<<(uint(bi)&63)) == 0 {
					return fmt.Errorf("free block %v order %d missing from reserved bitmap", Addr(base), o)
				}
			}
		}
	}
	if free != b.freeBytes {
		return fmt.Errorf("freeBytes %d, blocks sum to %d", b.freeBytes, free)
	}
	if reserved != b.reservedBytes {
		return fmt.Errorf("reservedBytes %d, blocks sum to %d", b.reservedBytes, reserved)
	}
	if total != b.capacity {
		return fmt.Errorf("blocks cover %d bytes, capacity %d", total, b.capacity)
	}
	for o := 0; o <= MaxOrder; o++ {
		if cntUnres[o] != b.cntUnres[o] || cntRes[o] != b.cntRes[o] {
			return fmt.Errorf("order %d free counts disagree with blocks", o)
		}
	}
	rangeOwner := make([]uint16, b.nframes)
	for oi, ranges := range b.reservedAt {
		for _, r := range ranges {
			lo := uint64(r.base) >> FrameShift
			hi := lo + OrderBytes(r.order)>>FrameShift
			if hi > b.nframes {
				return fmt.Errorf("owner index %d reserved range %v order %d beyond capacity", oi, r.base, r.order)
			}
			for fi := lo; fi < hi; fi++ {
				if rangeOwner[fi] != 0 {
					return fmt.Errorf("reserved ranges of owner indexes %d and %d overlap at %v",
						rangeOwner[fi], oi, Addr(fi<<FrameShift))
				}
				rangeOwner[fi] = uint16(oi)
			}
		}
	}
	for fi := uint64(0); fi < b.nframes; {
		oi := b.ownerAt(fi)
		end := fi + OrderBytes(int(b.metaOf(fi)&metaOrder))>>FrameShift
		for f := fi; f < end; f++ {
			if rangeOwner[f] != oi {
				return fmt.Errorf("block %v with owner index %d covers %v in owner index %d's reserved ranges",
					Addr(fi<<FrameShift), oi, Addr(f<<FrameShift), rangeOwner[f])
			}
		}
		fi = end
	}
	return nil
}

// TestCheckInvariantsMatchesDense corrupts valid allocator states one
// record, range or counter at a time and requires CheckInvariants to reject
// exactly the states the dense check rejects.
func TestCheckInvariantsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const frames = 4 * chunkFrames
	owners := []Owner{vb(1), vb(2), vb(3)}
	var rejected, accepted int
	for trial := 0; trial < 1000; trial++ {
		b := NewBuddy(frames * FrameSize)
		for step := 0; step < 40; step++ {
			owner := owners[rng.Intn(len(owners))]
			switch rng.Intn(4) {
			case 0:
				b.Reserve(owner, rng.Intn(chunkShift+2))
			case 1:
				b.Alloc(owner, rng.Intn(chunkShift+2))
			case 2:
				if rs := b.reservedAt[b.ownerIdx[owner]]; len(rs) > 0 {
					r := rs[rng.Intn(len(rs))]
					b.AllocAt(owner, r.base+Addr(rng.Intn(1<<r.order))*FrameSize, 0)
				}
			case 3:
				b.Unreserve(owner)
			}
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("trial %d before corruption: %v", trial, err)
		}
		corrupt(rng, b)
		sparse, dense := b.CheckInvariants(), checkInvariantsDense(b)
		if (sparse == nil) != (dense == nil) {
			t.Fatalf("trial %d: CheckInvariants = %v, dense check = %v", trial, sparse, dense)
		}
		if sparse != nil {
			rejected++
		} else {
			accepted++
		}
	}
	t.Logf("corrupted states rejected %d, accepted %d", rejected, accepted)
	if rejected == 0 {
		t.Fatal("no corruption was rejected")
	}
}

// corrupt applies one random change to b's records, reserved ranges or
// counters. Most changes break an invariant; a few (such as moving a
// block's owner to a value it already has) do not.
func corrupt(rng *rand.Rand, b *Buddy) {
	var starts, reserved []uint64
	for fi := uint64(0); fi < b.nframes; fi++ {
		if b.metaOf(fi)&metaLive != 0 {
			starts = append(starts, fi)
			if b.ownerAt(fi) != 0 {
				reserved = append(reserved, fi)
			}
		}
	}
	fi := starts[rng.Intn(len(starts))]
	if len(reserved) > 0 && rng.Intn(2) == 0 {
		fi = reserved[rng.Intn(len(reserved))]
	}
	c := b.chunks[fi>>chunkShift]
	i := fi & chunkMask
	order := int(c.meta[i] & metaOrder)
	oi := uint16(rng.Intn(len(b.reservedAt)))
	if rng.Intn(2) == 0 {
		oi = c.owner[i]
	}
	switch rng.Intn(10) {
	case 0: // retag a block
		c.owner[i] = oi
	case 1: // drop a block's record
		c.meta[i] = 0
	case 2: // flip its free bit
		c.meta[i] ^= metaFree
	case 3: // change its order
		c.meta[i] = c.meta[i]&^metaOrder | uint8(rng.Intn(order+2))
	case 4: // start a block inside another, possibly in a new chunk
		if order > 0 {
			in := fi + uint64(rng.Intn(1<<order-1)) + 1
			b.chunkOf(in).meta[in&chunkMask] = metaLive | uint8(bits.TrailingZeros64(in)%(order+1))
		}
	case 5: // record a range for some owner over an existing block
		b.reservedAt[oi] = append(b.reservedAt[oi], blockKey{Addr(fi << FrameShift), order})
	case 6: // record a range that runs past the pool
		b.reservedAt[oi] = append(b.reservedAt[oi], blockKey{Addr((b.nframes - 1) << FrameShift), 1})
	case 7: // forget a recorded range
		if rs := b.reservedAt[oi]; len(rs) > 0 {
			b.reservedAt[oi] = rs[1:]
		}
	case 9: // shrink a recorded range to one of its halves
		if rs := b.reservedAt[oi]; len(rs) > 0 && rs[0].order > 0 {
			half := Addr(rng.Intn(2)) * Addr(OrderBytes(rs[0].order-1))
			rs[0] = blockKey{rs[0].base + half, rs[0].order - 1}
		}
	case 8: // clear a free bitmap bit
		b.freeUnres[order].clear(int(fi >> uint(order)))
		b.freeRes[order].clear(int(fi >> uint(order)))
	}
}
