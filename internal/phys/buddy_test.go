package phys

import (
	"math/rand"
	"testing"

	"vbi/internal/addr"
)

func vb(id uint64) Owner { return addr.MakeVBUID(addr.Size4MB, id) }

func TestBuddySimpleAllocFree(t *testing.T) {
	b := NewBuddy(1 << 20) // 1 MB = 256 frames
	if b.Capacity() != 1<<20 {
		t.Fatalf("capacity = %d", b.Capacity())
	}
	a1, ok := b.Alloc(vb(1), 0)
	if !ok {
		t.Fatal("alloc failed")
	}
	a2, ok := b.Alloc(vb(1), 0)
	if !ok || a2 == a1 {
		t.Fatalf("second alloc = %v,%v", a2, ok)
	}
	if b.FreeBytes() != 1<<20-2*FrameSize {
		t.Fatalf("FreeBytes = %d", b.FreeBytes())
	}
	b.Free(a1, 0)
	b.Free(a2, 0)
	if b.FreeBytes() != 1<<20 {
		t.Fatalf("FreeBytes after frees = %d", b.FreeBytes())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Everything must have coalesced back into one 1 MB block (order 8).
	if got := b.LargestUnreservedOrder(); got != 8 {
		t.Fatalf("LargestUnreservedOrder = %d, want 8", got)
	}
}

func TestBuddyNonPowerOfTwoCapacity(t *testing.T) {
	// 3 MB decomposes into 2 MB + 1 MB top-level blocks.
	b := NewBuddy(3 << 20)
	if b.Capacity() != 3<<20 {
		t.Fatalf("capacity = %d", b.Capacity())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := b.LargestUnreservedOrder(); got != 9 {
		t.Fatalf("largest order = %d, want 9 (2 MB)", got)
	}
}

func TestBuddyReservationPriority(t *testing.T) {
	b := NewBuddy(1 << 20)
	x, y := vb(1), vb(2)

	// Reserve 512 KB (order 7) for X.
	resBase, ok := b.Reserve(x, 7)
	if !ok {
		t.Fatal("reserve failed")
	}
	if b.ReservedBytes() != 512<<10 {
		t.Fatalf("ReservedBytes = %d", b.ReservedBytes())
	}

	// Priority 1: X's allocations come from its own reservation.
	a, ok := b.Alloc(x, 0)
	if !ok {
		t.Fatal("alloc failed")
	}
	if uint64(a) < uint64(resBase) || uint64(a) >= uint64(resBase)+512<<10 {
		t.Fatalf("X's allocation %v outside its reservation at %v", a, resBase)
	}

	// Priority 2: Y's allocations avoid X's reservation while unreserved
	// memory remains.
	for i := 0; i < (512<<10-FrameSize)/FrameSize; i++ {
		ya, ok := b.Alloc(y, 0)
		if !ok {
			t.Fatalf("Y alloc %d failed", i)
		}
		if uint64(ya) >= uint64(resBase) && uint64(ya) < uint64(resBase)+512<<10 {
			t.Fatalf("Y's allocation %v inside X's reservation while unreserved memory remains", ya)
		}
	}
	// One unreserved frame remains (we allocated one frame for X out of its
	// own reservation, so unreserved = 512 KB minus Y's allocations).
	if _, ok := b.Alloc(y, 0); !ok {
		t.Fatal("Y alloc of last unreserved frame failed")
	}

	// Priority 3: with unreserved memory exhausted, Y steals from X's
	// reservation.
	ya, ok := b.Alloc(y, 0)
	if !ok {
		t.Fatal("Y steal alloc failed")
	}
	if uint64(ya) < uint64(resBase) || uint64(ya) >= uint64(resBase)+512<<10 {
		t.Fatalf("steal allocation %v not inside X's reservation", ya)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyFreeReturnsToReservation(t *testing.T) {
	b := NewBuddy(1 << 20)
	x := vb(1)
	if _, ok := b.Reserve(x, 8); !ok { // reserve everything
		t.Fatal("reserve failed")
	}
	a, ok := b.Alloc(x, 3)
	if !ok {
		t.Fatal("alloc failed")
	}
	b.Free(a, 3)
	if b.ReservedBytes() != 1<<20 {
		t.Fatalf("ReservedBytes = %d, want full pool (block returned to reservation)", b.ReservedBytes())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyUnreserve(t *testing.T) {
	b := NewBuddy(1 << 20)
	x := vb(1)
	if _, ok := b.Reserve(x, 8); !ok {
		t.Fatal("reserve failed")
	}
	a, _ := b.Alloc(x, 2)
	b.Unreserve(x)
	if b.ReservedBytes() != 0 {
		t.Fatalf("ReservedBytes = %d after Unreserve", b.ReservedBytes())
	}
	// Freeing the surviving allocation must return it to the unreserved
	// pool and coalesce fully.
	b.Free(a, 2)
	if got := b.LargestUnreservedOrder(); got != 8 {
		t.Fatalf("largest unreserved order = %d, want 8", got)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyStolenBlockFreesBackToVictim(t *testing.T) {
	b := NewBuddy(256 << 10) // order 6 pool
	x, y := vb(1), vb(2)
	if _, ok := b.Reserve(x, 6); !ok { // X reserves everything
		t.Fatal("reserve failed")
	}
	a, ok := b.Alloc(y, 0) // Y must steal
	if !ok {
		t.Fatal("steal failed")
	}
	b.Free(a, 0)
	// The freed frame rejoins X's reservation.
	if b.ReservedBytes() != 256<<10 {
		t.Fatalf("ReservedBytes = %d, want full pool", b.ReservedBytes())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyExhaustion(t *testing.T) {
	b := NewBuddy(64 << 10) // 16 frames
	for i := 0; i < 16; i++ {
		if _, ok := b.Alloc(vb(1), 0); !ok {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if _, ok := b.Alloc(vb(1), 0); ok {
		t.Fatal("alloc succeeded on empty pool")
	}
	if b.LargestFreeOrder(vb(1)) != -1 {
		t.Fatal("LargestFreeOrder should be -1")
	}
}

func TestBuddyLargestFreeOrderSeesStealable(t *testing.T) {
	b := NewBuddy(256 << 10)
	x, y := vb(1), vb(2)
	b.Reserve(x, 6) // everything reserved for X
	if got := b.LargestUnreservedOrder(); got != -1 {
		t.Fatalf("LargestUnreservedOrder = %d, want -1", got)
	}
	// Y can still allocate by stealing, so LargestFreeOrder reports it.
	if got := b.LargestFreeOrder(y); got != 6 {
		t.Fatalf("LargestFreeOrder(y) = %d, want 6", got)
	}
}

func TestBuddyFreePanicsOnBadBlock(t *testing.T) {
	b := NewBuddy(1 << 20)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Free(Addr(0), 0) // never allocated
}

// TestBuddyRandomizedInvariants drives a random workload of reservations,
// allocations and frees and checks structural invariants throughout.
func TestBuddyRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuddy(8 << 20)
	type alloced struct {
		base  Addr
		order int
	}
	var outstanding []alloced
	owners := []Owner{vb(1), vb(2), vb(3), vb(4)}
	reserved := map[Owner]bool{}
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(10); {
		case r < 5: // alloc
			o := rng.Intn(5)
			owner := owners[rng.Intn(len(owners))]
			if base, ok := b.Alloc(owner, o); ok {
				outstanding = append(outstanding, alloced{base, o})
			}
		case r < 8: // free
			if len(outstanding) > 0 {
				i := rng.Intn(len(outstanding))
				a := outstanding[i]
				outstanding[i] = outstanding[len(outstanding)-1]
				outstanding = outstanding[:len(outstanding)-1]
				b.Free(a.base, a.order)
			}
		case r < 9: // reserve
			owner := owners[rng.Intn(len(owners))]
			if _, ok := b.Reserve(owner, rng.Intn(7)); ok {
				reserved[owner] = true
			}
		default: // unreserve
			owner := owners[rng.Intn(len(owners))]
			if reserved[owner] {
				b.Unreserve(owner)
				delete(reserved, owner)
			}
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// Drain everything and verify full coalescing.
	for _, a := range outstanding {
		b.Free(a.base, a.order)
	}
	for o := range reserved {
		b.Unreserve(o)
	}
	for _, owner := range owners {
		b.Unreserve(owner)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if b.FreeBytes() != b.Capacity() {
		t.Fatalf("FreeBytes = %d, want %d", b.FreeBytes(), b.Capacity())
	}
	if got := b.LargestUnreservedOrder(); got != 11 { // 8 MB = order 11
		t.Fatalf("largest order = %d, want 11", got)
	}
}

func TestBuddyAllocOrderBounds(t *testing.T) {
	b := NewBuddy(1 << 20)
	if _, ok := b.Alloc(vb(1), -1); ok {
		t.Error("negative order alloc succeeded")
	}
	if _, ok := b.Alloc(vb(1), MaxOrder+1); ok {
		t.Error("over-max order alloc succeeded")
	}
	if _, ok := b.Reserve(0, 0); ok {
		t.Error("reserve for owner 0 succeeded")
	}
}

func TestBuddyAllocAt(t *testing.T) {
	b := NewBuddy(1 << 20)
	x := vb(1)
	resBase, ok := b.Reserve(x, 8) // whole pool reserved
	if !ok {
		t.Fatal("reserve failed")
	}
	// Materialize a specific frame deep inside the reservation.
	target := resBase + Addr(37*FrameSize)
	if !b.AllocAt(x, target, 0) {
		t.Fatal("AllocAt failed on free reserved region")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The same frame cannot be allocated twice.
	if b.AllocAt(x, target, 0) {
		t.Fatal("AllocAt double-allocated a frame")
	}
	// Neighbouring frame still works.
	if !b.AllocAt(x, target+FrameSize, 0) {
		t.Fatal("AllocAt of neighbour failed")
	}
	b.Free(target, 0)
	b.Free(target+FrameSize, 0)
	b.Unreserve(x)
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := b.LargestUnreservedOrder(); got != 8 {
		t.Fatalf("pool did not re-coalesce: largest order %d", got)
	}
}

func TestBuddyAllocAtStolenRegionFails(t *testing.T) {
	b := NewBuddy(128 << 10) // 32 frames
	x, y := vb(1), vb(2)
	resBase, ok := b.Reserve(x, 5) // X reserves all 32 frames
	if !ok {
		t.Fatal("reserve failed")
	}
	// Y steals a specific region (simulating pressure): allocate every
	// frame to Y.
	for i := 0; i < 32; i++ {
		if _, ok := b.Alloc(y, 0); !ok {
			t.Fatalf("steal alloc %d failed", i)
		}
	}
	// X can no longer materialize its frames: direct mapping lost.
	if b.AllocAt(x, resBase, 0) {
		t.Fatal("AllocAt succeeded on stolen region")
	}
}

func TestBuddyAllocAtUnaligned(t *testing.T) {
	b := NewBuddy(1 << 20)
	if b.AllocAt(vb(1), Addr(FrameSize/2), 0) {
		t.Fatal("unaligned AllocAt succeeded")
	}
	if b.AllocAt(vb(1), Addr(FrameSize), 1) { // misaligned for order 1
		t.Fatal("order-misaligned AllocAt succeeded")
	}
}

func TestBuddyAllocAtUnreservedRegion(t *testing.T) {
	b := NewBuddy(1 << 20)
	if !b.AllocAt(vb(1), Addr(512<<10), 3) {
		t.Fatal("AllocAt on unreserved free region failed")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	b.Free(Addr(512<<10), 3)
	if got := b.LargestUnreservedOrder(); got != 8 {
		t.Fatalf("did not coalesce: %d", got)
	}
}

// chunkCount returns how many record chunks b has materialized.
func chunkCount(b *Buddy) int {
	n := 0
	for _, c := range b.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// The per-frame records cost what the allocator touches, not its capacity:
// a 32 GB pool starts with the one chunk its single seed block needs, and
// later operations materialize only the chunks their block records land in.
func TestBuddyFramesStaySparse(t *testing.T) {
	b := NewBuddy(32 << 30) // one order-23 block
	if n := chunkCount(b); n != 1 {
		t.Fatalf("fresh 32 GB pool has %d chunks, want 1", n)
	}
	// One order-0 Alloc opens a run over the 32 GB block, which records
	// only the frame it hands out.
	a, ok := b.Alloc(vb(1), 0)
	if !ok || a != 0 {
		t.Fatalf("Alloc = %v, %v", a, ok)
	}
	if n := chunkCount(b); n != 1 {
		t.Fatalf("with the run open: %d chunks, want 1", n)
	}
	// Materializing the run leaves what splitting the block down to one
	// frame leaves: a free half at every order below 23. Halves of order
	// chunkShift and up each start a chunk of their own; the smaller ones
	// share chunk 0 with the frame.
	if got := b.LargestUnreservedOrder(); got != 22 {
		t.Fatalf("largest order with one frame taken = %d, want 22", got)
	}
	splitPoints := 1 + (23 - chunkShift)
	if n := chunkCount(b); n != splitPoints {
		t.Fatalf("after one order-0 Alloc: %d chunks, want %d", n, splitPoints)
	}
	b.Free(a, 0)
	if got := b.LargestUnreservedOrder(); got != 23 {
		t.Fatalf("Free did not re-coalesce across chunks: largest order %d", got)
	}

	// Reserving and filling 1 GB touches its own 16 chunks at most.
	owner := vb(2)
	base, ok := b.Reserve(owner, 18)
	if !ok {
		t.Fatal("Reserve failed")
	}
	for at := base; at < base+1<<30; at += FrameSize {
		if !b.AllocAt(owner, at, 0) {
			t.Fatalf("AllocAt(%v) failed", at)
		}
	}
	b.Unreserve(owner)
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	bound := splitPoints + (1<<30)/(chunkFrames*FrameSize)
	if n := chunkCount(b); n > bound {
		t.Fatalf("after filling 1 GB: %d chunks, want at most %d of %d", n, bound, len(b.chunks))
	}
	for at := base; at < base+1<<30; at += FrameSize {
		b.Free(at, 0)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if b.FreeBytes() != b.Capacity() || b.LargestUnreservedOrder() != 23 {
		t.Fatalf("pool did not re-coalesce: free %d of %d, largest order %d",
			b.FreeBytes(), b.Capacity(), b.LargestUnreservedOrder())
	}
}

// A run materializes as the free pieces eager splitting leaves: three
// frames taken from an order-3 block leave an order-0 piece at +3 and an
// order-2 piece at +4. Until then only the taken frames have records, and
// FreeBytes already counts them.
func TestBuddyRunMaterializesAsSplit(t *testing.T) {
	b := NewBuddy(8 * FrameSize) // one order-3 block
	for i := 0; i < 3; i++ {
		if a, ok := b.Alloc(vb(1), 0); !ok || a != Addr(i*FrameSize) {
			t.Fatalf("Alloc %d = %v, %v", i, a, ok)
		}
	}
	if got := b.FreeBytes(); got != 5*FrameSize {
		t.Fatalf("FreeBytes with the run open = %d, want %d", got, 5*FrameSize)
	}
	for fi := uint64(3); fi < 8; fi++ {
		if m := b.metaOf(fi); m != 0 {
			t.Fatalf("frame %d has record %#x with the run open", fi, m)
		}
	}
	if err := b.CheckInvariants(); err != nil { // materializes the run
		t.Fatal(err)
	}
	want := map[uint64]uint8{
		0: metaLive, 1: metaLive, 2: metaLive,
		3: metaLive | metaFree | 0,
		4: metaLive | metaFree | 2,
	}
	for fi := uint64(0); fi < 8; fi++ {
		if got := b.metaOf(fi); got != want[fi] {
			t.Errorf("frame %d record = %#x, want %#x", fi, got, want[fi])
		}
	}
	if b.cntUnres[0] != 1 || b.cntUnres[2] != 1 || b.cntUnres[1] != 0 || b.cntUnres[3] != 0 {
		t.Errorf("free counts by order = %v, want one order-0 and one order-2 block", b.cntUnres[:4])
	}
}
