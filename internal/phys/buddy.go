package phys

import (
	"fmt"
	"math/bits"
	"sort"

	"vbi/internal/addr"
)

// Owner identifies the virtual block a reservation or allocation belongs to.
// The zero Owner means "unreserved".
type Owner = addr.VBUID

// MaxOrder bounds block sizes at 4 KB << 28 = 1 TB, far beyond any simulated
// physical capacity.
const MaxOrder = 28

// OrderBytes returns the size in bytes of an order-k buddy block.
func OrderBytes(order int) uint64 { return FrameSize << order }

// OrderFor returns the smallest order whose blocks hold size bytes, and
// ok=false when size exceeds the largest order.
func OrderFor(size uint64) (int, bool) {
	for o := 0; o <= MaxOrder; o++ {
		if size <= OrderBytes(o) {
			return o, true
		}
	}
	return 0, false
}

// blockKey uniquely names an existing buddy block: its base address plus its
// order (the same base can exist at several orders after splits, but only
// one of them is live at a time; the key disambiguates book-keeping).
type blockKey struct {
	base  Addr
	order int
}

// Per-frame block metadata, indexed by frame number (base >> FrameShift).
// Only the frame a block *starts* at carries its record; since at most one
// block is live at a given base, one byte suffices: liveness, freeness and
// the block's order.
const (
	metaLive  uint8 = 1 << 7
	metaFree  uint8 = 1 << 6
	metaOrder uint8 = 0x1f
)

// chunkShift sizes the chunks the per-frame records are stored in: 2^14
// frames, 64 MB of simulated memory and 48 KB of records. A chunk is
// allocated by the first write into it, so the records cost what a run
// touches, not what the machine has. Smaller chunks waste less on partly
// touched ranges but lengthen the directory and leave fewer AllocAt
// searches inside one chunk. Peak heap of the vbiperf workloads
// quad-bundles / translation-bound / cache-resident / hetero-migration was
// 13.9 / 13.3 / 4.1 / 10.0 MB at 2^12 frames, 15.0 / 13.5 / 4.4 / 10.1 MB at
// 2^14 and 18.2 / 14.1 / 5.6 / 10.5 MB at 2^16.
const (
	chunkShift  = 14
	chunkFrames = 1 << chunkShift
	chunkMask   = chunkFrames - 1
)

// frameChunk holds the records of chunkFrames consecutive frames: meta is
// the block record of each frame a block starts at, owner the interned
// owner index of that block (meaningful only where meta has metaLive).
type frameChunk struct {
	meta  [chunkFrames]uint8
	owner [chunkFrames]uint16
}

// bitset is a fixed-size bit vector over block indexes (frame >> order).
type bitset []uint64

func (bs bitset) set(i int)   { bs[i>>6] |= 1 << (uint(i) & 63) }
func (bs bitset) clear(i int) { bs[i>>6] &^= 1 << (uint(i) & 63) }

// nextSet returns the first set bit >= from, or -1 when none remains.
func (bs bitset) nextSet(from int) int {
	if from < 0 {
		from = 0
	}
	w := from >> 6
	if w >= len(bs) {
		return -1
	}
	word := bs[w] & (^uint64(0) << (uint(from) & 63))
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(bs) {
			return -1
		}
		word = bs[w]
	}
}

// Buddy is a binary-buddy allocator with per-VB reservations (§5.3).
//
// A reservation is an ordinary free block tagged with the owning VB. When
// VB X requests memory the allocator uses a three-level priority: (1) free
// blocks reserved for X, (2) unreserved free blocks, (3) free blocks
// reserved for other VBs (stealing, used only under memory pressure by
// construction of the priority order).
//
// Book-keeping is flat: block existence/state lives in per-frame records,
// kept in lazily allocated chunks of frames, and the free blocks of each
// order are tracked in per-order bitmaps searched lowest-base-first with
// find-first-set. A per-order hint (a lower bound below which no bit is
// set) makes the first-fit scan effectively O(1) under the allocator's own
// first-fit placement. Placement is identical to the map-backed implementation this
// replaced — both pick the lowest base at the smallest sufficient order.
// The one map left, ownerIdx, interns owners to small indexes; Alloc,
// Reserve, Unreserve and LargestFreeOrder read it once per call, and AllocAt
// and Free never do.
// Everything else is a slice or bitmap indexed by frame, order or owner
// index, so the hot path does not hash keys or churn map buckets. That
// matters because region allocation sits on the machine-construction path
// (Prefill) and, under delayed allocation (§5.1), on the per-writeback
// path of the simulated run.
//
// Order-0 allocations, the MTL's region-by-region fill, are served from a
// frame run (see frameRun) that places exactly as splitting a block down
// on every call would.
type Buddy struct {
	capacity uint64
	nframes  uint64
	// chunks[fi>>chunkShift] holds the records of frame fi. A nil chunk
	// reads as all zero: no block starts in it. Owner index 0 is the zero
	// Owner ("unreserved"); an allocated block keeps the index of the
	// reservation it was carved from. Chunks are never freed.
	chunks []*frameChunk
	// ownerIdx interns distinct reservation owners to indexes from 1.
	ownerIdx map[Owner]uint16

	// freeUnres[o]/freeRes[o] mark the free order-o blocks by block index,
	// split by reservation state; hints are maintained lower bounds on the
	// lowest set bit; counts allow O(1) emptiness tests per order.
	freeUnres [MaxOrder + 1]bitset
	freeRes   [MaxOrder + 1]bitset
	hintUnres [MaxOrder + 1]int
	hintRes   [MaxOrder + 1]int
	cntUnres  [MaxOrder + 1]int
	cntRes    [MaxOrder + 1]int
	// cntResOwn[oi][o] counts reserved-free order-o blocks of owner index
	// oi, for per-owner emptiness tests without a per-owner index.
	cntResOwn [][MaxOrder + 1]int32
	// reservedAt[oi] lists the blocks Reserve tagged for owner index oi
	// since its last Unreserve. Every block whose owner record is oi, free
	// or allocated, lies inside these ranges, and every block inside them
	// has owner record oi, so Unreserve finds oi's blocks by walking them.
	reservedAt [][]blockKey

	// run is the open frame run, if any.
	run frameRun

	freeBytes     uint64
	reservedBytes uint64 // subset of freeBytes that is reserved
}

// frameRun is a free block that order-0 allocations take frames from in
// ascending order, one call at a time. Opening it takes the block off the
// free bitmaps; each frame handed out gets its allocated record, and the
// rest of the block, frames [next, end), stays free without records. That
// remainder is exactly the free set eager splitting would leave: its
// canonical buddy decomposition, one aligned piece per set bit of
// end-next, the smallest piece starting at next. So the next frame any
// order-0 allocation would take from it is next:
//
//   - AllocAt of frame next, whoever asks, since AllocAt places by address;
//   - Alloc(vb, 0) when vb's own Alloc opened the run, since the block was
//     the first fit at the smallest free order of vb's priority class, so
//     no other free block of that class is smaller than the pieces.
//
// Every other operation first materializes the remainder (settle).
// freeBytes stays exact while a run is open; reservedBytes and the free
// counts and bitmaps lack the remainder until it is materialized.
type frameRun struct {
	next, end uint64 // frames; the run is open while next < end
	oi        uint16 // owner index of the block the run was cut from
	alloc     bool   // opened by Alloc(vb, 0), which may continue it
	vb        Owner
}

// NewBuddy returns a buddy allocator over capacity bytes (rounded down to a
// whole number of frames). The capacity need not be a power of two: the pool
// is seeded with the greedy binary decomposition of the capacity.
func NewBuddy(capacity uint64) *Buddy {
	capacity &^= FrameSize - 1
	nframes := capacity >> FrameShift
	b := &Buddy{
		capacity:   capacity,
		nframes:    nframes,
		chunks:     make([]*frameChunk, (nframes+chunkMask)>>chunkShift),
		ownerIdx:   make(map[Owner]uint16),
		cntResOwn:  make([][MaxOrder + 1]int32, 1),
		reservedAt: make([][]blockKey, 1),
	}
	for o := 0; o <= MaxOrder; o++ {
		nbits := (nframes + OrderBytes(o)>>FrameShift - 1) >> uint(o)
		words := int((nbits + 63) / 64)
		b.freeUnres[o] = make(bitset, words)
		b.freeRes[o] = make(bitset, words)
	}
	// Seed with the largest aligned blocks that fit, high orders first.
	base := Addr(0)
	remaining := capacity
	for o := MaxOrder; o >= 0; o-- {
		sz := OrderBytes(o)
		for remaining >= sz && uint64(base)%sz == 0 {
			b.addFree(base, o, 0)
			base += Addr(sz)
			remaining -= sz
		}
	}
	b.freeBytes = capacity - remaining
	b.capacity = b.freeBytes
	return b
}

// Capacity returns the managed pool size in bytes.
func (b *Buddy) Capacity() uint64 { return b.capacity }

// FreeBytes returns the total free bytes (reserved free blocks included).
func (b *Buddy) FreeBytes() uint64 { return b.freeBytes }

// ReservedBytes returns the free bytes currently reserved for some VB.
func (b *Buddy) ReservedBytes() uint64 {
	b.settle()
	return b.reservedBytes
}

// internOwner maps a non-zero owner to its stable small index, assigning
// one on first sight.
func (b *Buddy) internOwner(o Owner) uint16 {
	if i, ok := b.ownerIdx[o]; ok {
		return i
	}
	if len(b.cntResOwn) > 0xfffe {
		panic("phys: too many distinct reservation owners")
	}
	i := uint16(len(b.cntResOwn))
	b.ownerIdx[o] = i
	b.cntResOwn = append(b.cntResOwn, [MaxOrder + 1]int32{})
	b.reservedAt = append(b.reservedAt, nil)
	return i
}

// metaOf returns the block record of frame fi.
func (b *Buddy) metaOf(fi uint64) uint8 {
	if c := b.chunks[fi>>chunkShift]; c != nil {
		return c.meta[fi&chunkMask]
	}
	return 0
}

// ownerAt returns the owner index recorded at frame fi.
func (b *Buddy) ownerAt(fi uint64) uint16 {
	if c := b.chunks[fi>>chunkShift]; c != nil {
		return c.owner[fi&chunkMask]
	}
	return 0
}

// chunkOf returns the chunk holding frame fi's record for writing,
// materializing it on first use.
func (b *Buddy) chunkOf(fi uint64) *frameChunk {
	if c := b.chunks[fi>>chunkShift]; c != nil {
		return c
	}
	return b.newChunk(fi >> chunkShift)
}

// newChunk allocates the records of chunk ci. It stays out of line, off
// the hot path's inlined accessors. Chunks are never freed, so it
// allocates at most one chunk per chunkFrames (2^14) frames of capacity
// over the allocator's lifetime.
//
//go:noinline
func (b *Buddy) newChunk(ci uint64) *frameChunk {
	c := new(frameChunk)
	b.chunks[ci] = c
	return c
}

//vbi:hotpath
func (b *Buddy) addFree(base Addr, order int, oi uint16) {
	fi := uint64(base) >> FrameShift
	b.addFreeIn(b.chunkOf(fi), fi, order, oi)
}

// addFreeIn records a free block starting at frame fi, whose record lives
// in chunk c.
//
//vbi:hotpath
func (b *Buddy) addFreeIn(c *frameChunk, fi uint64, order int, oi uint16) {
	c.meta[fi&chunkMask] = metaLive | metaFree | uint8(order)
	c.owner[fi&chunkMask] = oi
	bi := int(fi >> uint(order))
	if oi == 0 {
		b.freeUnres[order].set(bi)
		if bi < b.hintUnres[order] {
			b.hintUnres[order] = bi
		}
		b.cntUnres[order]++
	} else {
		b.freeRes[order].set(bi)
		if bi < b.hintRes[order] {
			b.hintRes[order] = bi
		}
		b.cntRes[order]++
		b.cntResOwn[oi][order]++
		b.reservedBytes += OrderBytes(order)
	}
}

// removeFree deletes the free block starting at base. The recorded owner
// index decides which bitmap the block leaves, keeping the two views
// self-consistent by construction.
//
//vbi:hotpath
func (b *Buddy) removeFree(base Addr, order int) {
	fi := uint64(base) >> FrameShift
	b.removeFreeIn(b.chunks[fi>>chunkShift], fi, order)
}

// removeFreeIn is removeFree for the block starting at frame fi, whose
// record lives in chunk c.
//
//vbi:hotpath
func (b *Buddy) removeFreeIn(c *frameChunk, fi uint64, order int) {
	oi := c.owner[fi&chunkMask]
	c.meta[fi&chunkMask] = 0
	bi := int(fi >> uint(order))
	if oi == 0 {
		b.freeUnres[order].clear(bi)
		b.cntUnres[order]--
	} else {
		b.freeRes[order].clear(bi)
		b.cntRes[order]--
		b.cntResOwn[oi][order]--
		b.reservedBytes -= OrderBytes(order)
	}
}

// splitTo takes the free block at frame fi of order from, whose record
// lives in chunk c, off the free set and halves it down to order to,
// keeping every split-off upper half free with owner index oi. The order-to
// block at fi is left without a record, for the caller to write.
//
// Halves of order chunkShift and up start chunks of their own; every
// smaller piece shares the block's chunk.
//
//vbi:hotpath
func (b *Buddy) splitTo(c *frameChunk, fi uint64, from, to int, oi uint16) {
	b.removeFreeIn(c, fi, from)
	for o := from; o > to; o-- {
		if o > chunkShift {
			b.addFree(Addr((fi+1<<(o-1))<<FrameShift), o-1, oi)
		} else {
			b.addFreeIn(c, fi+1<<(o-1), o-1, oi)
		}
	}
}

// pickUnres returns the unreserved free block an allocation of order want
// takes, and its order. Smallest sufficient order first to limit
// fragmentation; within an order the lowest base wins (first fit), so
// allocation placement — and with it bank/row timing — is identical
// between runs.
//
//vbi:hotpath
func (b *Buddy) pickUnres(want int) (Addr, int, bool) {
	for o := want; o <= MaxOrder; o++ {
		if b.cntUnres[o] == 0 {
			continue
		}
		bi := b.freeUnres[o].nextSet(b.hintUnres[o])
		b.hintUnres[o] = bi
		return Addr(uint64(bi) << uint(FrameShift+o)), o, true
	}
	return NoAddr, 0, false
}

// firstRes returns the lowest-base free reserved order-o block whose owner
// index matches (equal=true) or differs from (equal=false) target.
func (b *Buddy) firstRes(order int, target uint16, equal bool) (Addr, uint16, bool) {
	bs := b.freeRes[order]
	bi := bs.nextSet(b.hintRes[order])
	if bi >= 0 {
		// The hint may only advance to the first set bit: later bits are
		// skipped by the filter, not cleared, and must stay reachable.
		b.hintRes[order] = bi
	}
	for bi >= 0 {
		oi := b.ownerAt(uint64(bi) << uint(order))
		if (oi == target) == equal {
			return Addr(uint64(bi) << uint(FrameShift+order)), oi, true
		}
		bi = bs.nextSet(bi + 1)
	}
	return NoAddr, 0, false
}

// pickOwned returns the free block of order >= want reserved for owner
// index self (0 when the owner holds no reservation), and its order.
func (b *Buddy) pickOwned(self uint16, want int) (Addr, int, bool) {
	if self == 0 {
		return NoAddr, 0, false
	}
	for o := want; o <= MaxOrder; o++ {
		if b.cntResOwn[self][o] == 0 {
			continue
		}
		if base, _, ok := b.firstRes(o, self, true); ok {
			return base, o, true
		}
	}
	return NoAddr, 0, false
}

// pickStolen returns a free block of order >= want reserved for any owner
// index other than self, its order and the victim's index.
func (b *Buddy) pickStolen(self uint16, want int) (Addr, int, uint16, bool) {
	for o := want; o <= MaxOrder; o++ {
		if int32(b.cntRes[o])-b.cntResOwn[self][o] <= 0 {
			continue
		}
		if base, oi, ok := b.firstRes(o, self, false); ok {
			return base, o, oi, true
		}
	}
	return NoAddr, 0, 0, false
}

// Alloc allocates an order-sized block for VB vb using the three-level
// priority of §5.3. It returns ok=false only when no free block of
// sufficient order exists anywhere.
//
//vbi:hotpath
func (b *Buddy) Alloc(vb Owner, order int) (Addr, bool) {
	if order < 0 || order > MaxOrder {
		return NoAddr, false
	}
	if order == 0 && b.run.alloc && b.run.vb == vb && b.run.next < b.run.end {
		return b.nextFrame(), true
	}
	b.settle()
	self := b.ownerIdx[vb]
	// Priority 1: free blocks reserved for this VB.
	base, o, ok := b.pickOwned(self, order)
	oi := self
	// Priority 2: unreserved free blocks.
	if !ok {
		base, o, ok = b.pickUnres(order)
		oi = 0
	}
	// Priority 3: steal from another VB's reservation.
	if !ok {
		base, o, oi, ok = b.pickStolen(self, order)
	}
	if !ok {
		return NoAddr, false
	}
	fi := uint64(base) >> FrameShift
	c := b.chunks[fi>>chunkShift]
	if order == 0 && o > 0 {
		b.openRun(c, fi, o, oi)
		b.run.alloc, b.run.vb = true, vb
		return base, true
	}
	b.splitTo(c, fi, o, order, oi)
	b.markAllocatedIn(c, fi, order, oi)
	return base, true
}

// markAllocatedIn records an allocated block starting at frame fi, whose
// record lives in chunk c and which is on no free list. The block keeps oi,
// the owner index of the reservation it was carved from (0 for unreserved
// memory); this is the only writer of a non-zero owner index onto an
// allocated block.
//
//vbi:hotpath
func (b *Buddy) markAllocatedIn(c *frameChunk, fi uint64, order int, oi uint16) {
	c.meta[fi&chunkMask] = metaLive | uint8(order)
	c.owner[fi&chunkMask] = oi
	b.freeBytes -= OrderBytes(order)
}

// openRun takes the free block at frame fi of order o, whose record lives
// in chunk c, off the free set, allocates its first frame and opens a run
// over the rest, one only AllocAt continues until Alloc claims it.
//
//vbi:hotpath
func (b *Buddy) openRun(c *frameChunk, fi uint64, o int, oi uint16) {
	b.removeFreeIn(c, fi, o)
	b.markAllocatedIn(c, fi, 0, oi)
	b.run = frameRun{next: fi + 1, end: fi + 1<<o, oi: oi}
}

// nextFrame allocates the open run's next frame.
//
//vbi:hotpath
func (b *Buddy) nextFrame() Addr {
	fi := b.run.next
	b.run.next++
	b.markAllocatedIn(b.chunkOf(fi), fi, 0, b.run.oi)
	return Addr(fi << FrameShift)
}

// settle materializes the open run, if any, so that the records, bitmaps
// and counters describe every free block.
//
//vbi:hotpath
func (b *Buddy) settle() {
	if b.run.next < b.run.end {
		b.materialize()
	}
}

// materialize records the open run's remainder as its canonical buddy
// decomposition, smallest piece first, and closes the run.
func (b *Buddy) materialize() {
	r := b.run
	b.run = frameRun{}
	for at := r.next; at < r.end; {
		o := bits.TrailingZeros64(r.end - at)
		b.addFree(Addr(at<<FrameShift), o, r.oi)
		at += 1 << o
	}
}

// AllocAt allocates the specific order-sized block at base for vb, if that
// exact region is currently free (whether unreserved or reserved for any
// owner). Directly-mapped VBs use it to materialize a 4 KB region at its
// fixed position inside the VB's reservation (§5.3); it fails when the
// region was stolen by another VB under memory pressure, which is the
// signal that the VB has lost its direct mapping.
//
//vbi:hotpath
func (b *Buddy) AllocAt(vb Owner, base Addr, order int) bool {
	if order < 0 || order > MaxOrder || uint64(base)&(OrderBytes(order)-1) != 0 {
		return false
	}
	fi := uint64(base) >> FrameShift
	if order == 0 && fi == b.run.next && b.run.next < b.run.end {
		b.nextFrame()
		return true
	}
	if fi >= b.nframes {
		return false
	}
	b.settle()
	// Find the free block containing [base, base+2^order): the smallest
	// enclosing aligned block that exists and is free. Up to order
	// chunkShift every candidate starts in base's own chunk, read once; a
	// nil chunk holds no block start, so the search skips to the larger
	// orders, whose candidates each start a chunk.
	o := order
	c := b.chunks[fi>>chunkShift]
	if c == nil {
		o = max(o, chunkShift+1)
	}
	for ; o <= MaxOrder; o++ {
		efi := fi &^ (1<<uint(o) - 1)
		ec := c
		if o > chunkShift {
			if ec = b.chunks[efi>>chunkShift]; ec == nil {
				continue
			}
		}
		m := ec.meta[efi&chunkMask]
		if m&metaLive == 0 || int(m&metaOrder) != o {
			continue
		}
		if m&metaFree == 0 {
			return false // region (or part of it) already allocated
		}
		oi := ec.owner[efi&chunkMask]
		if order == 0 && o > 0 && efi == fi {
			b.openRun(ec, fi, o, oi)
			return true
		}
		c = b.splitToAt(ec, efi, o, fi, order, oi)
		b.markAllocatedIn(c, fi, order, oi)
		return true
	}
	return false
}

// splitToAt takes the free block (frame cur, order from, owner index oi),
// whose record lives in chunk c, off the free set and splits it down to an
// order-"to" block at exactly frame target, keeping every split-off
// sibling free with the same owner index. The target block is left without
// a record, for the caller to write; splitToAt returns the chunk holding
// target's record.
//
// Halves of order chunkShift and up start chunks of their own; every
// smaller piece lies in target's chunk, which is read once.
//
//vbi:hotpath
func (b *Buddy) splitToAt(c *frameChunk, cur uint64, from int, target uint64, to int, oi uint16) *frameChunk {
	b.removeFreeIn(c, cur, from)
	o := from
	if o > chunkShift {
		for ; o > to && o > chunkShift; o-- {
			half := uint64(1) << uint(o-1)
			if target >= cur+half {
				b.addFree(Addr(cur<<FrameShift), o-1, oi) // target in upper half; lower stays free
				cur += half
			} else {
				b.addFree(Addr((cur+half)<<FrameShift), o-1, oi)
			}
		}
		c = b.chunkOf(cur)
	}
	for ; o > to; o-- {
		half := uint64(1) << uint(o-1)
		if target >= cur+half {
			b.addFreeIn(c, cur, o-1, oi)
			cur += half
		} else {
			b.addFreeIn(c, cur+half, o-1, oi)
		}
	}
	return c
}

// Reserve carves an order-sized contiguous region out of *unreserved* free
// memory and tags it as reserved for vb. Reserved blocks remain free (they
// count toward FreeBytes) but are preferred by vb's future allocations and
// only used by other VBs when nothing unreserved remains.
func (b *Buddy) Reserve(vb Owner, order int) (Addr, bool) {
	if vb == 0 || order < 0 || order > MaxOrder {
		return NoAddr, false
	}
	b.settle()
	base, o, ok := b.pickUnres(order)
	if !ok {
		return NoAddr, false
	}
	// Split off the unreserved rest and record the block as reserved-free
	// for vb.
	oi := b.internOwner(vb)
	fi := uint64(base) >> FrameShift
	c := b.chunks[fi>>chunkShift]
	b.splitTo(c, fi, o, order, 0)
	b.addFreeIn(c, fi, order, oi)
	b.reservedAt[oi] = append(b.reservedAt[oi], blockKey{base, order})
	return base, true
}

// Free returns an allocated block to the pool. The block rejoins the
// reservation it was carved from (if that reservation still stands) and
// merges with same-state buddies.
//
//vbi:hotpath
func (b *Buddy) Free(base Addr, order int) {
	b.settle()
	fi := uint64(base) >> FrameShift
	var m uint8
	if order >= 0 && order <= MaxOrder && fi < b.nframes {
		m = b.metaOf(fi)
	}
	if m&metaLive == 0 || int(m&metaOrder) != order || m&metaFree != 0 {
		//vbi:allow hotalloc panic formatting on a caller bug, never reached by a correct simulation
		panic(fmt.Sprintf("phys: Free of non-allocated block %v order %d", base, order))
	}
	c := b.chunks[fi>>chunkShift]
	c.meta[fi&chunkMask] = 0
	b.freeBytes += OrderBytes(order)
	b.freeAndMerge(base, order, c.owner[fi&chunkMask])
}

// freeAndMerge adds the free block (base, order) with owner index oi,
// first merging it with free buddies of the same owner index.
//
//vbi:hotpath
func (b *Buddy) freeAndMerge(base Addr, order int, oi uint16) {
	for order < MaxOrder {
		buddy := base ^ Addr(OrderBytes(order))
		bfi := uint64(buddy) >> FrameShift
		if bfi >= b.nframes {
			break
		}
		c := b.chunks[bfi>>chunkShift]
		if c == nil {
			break
		}
		m := c.meta[bfi&chunkMask]
		if m&metaLive == 0 || m&metaFree == 0 || int(m&metaOrder) != order {
			break
		}
		if c.owner[bfi&chunkMask] != oi {
			break
		}
		b.removeFreeIn(c, bfi, order)
		if buddy < base {
			base = buddy
		}
		order++
	}
	b.addFree(base, order, oi)
}

// Unreserve releases vb's reservation: its remaining reserved-free blocks
// become unreserved free blocks, and blocks still allocated out of the
// reservation are retagged so that freeing them later returns them to the
// unreserved pool.
//
// Both kinds are found by walking vb's reserved ranges block start by block
// start. The ranges are walked sorted and coalesced, because a free block
// may span two adjacent reservations its buddies merged across, and before
// any free block is released, because a released block may merge with
// unreserved memory outside the ranges. Blocks are released in ascending
// base order, which fixes the merges and so the allocator's later state.
func (b *Buddy) Unreserve(vb Owner) {
	b.settle()
	oi, ok := b.ownerIdx[vb]
	if !ok {
		return
	}
	ranges := b.reservedAt[oi]
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].base < ranges[j].base })
	var free []blockKey
	for i := 0; i < len(ranges); {
		at := ranges[i].base
		end := at + Addr(OrderBytes(ranges[i].order))
		for i++; i < len(ranges) && ranges[i].base == end; i++ {
			end += Addr(OrderBytes(ranges[i].order))
		}
		for at < end {
			fi := uint64(at) >> FrameShift
			m := b.metaOf(fi)
			if m&metaLive == 0 {
				panic(fmt.Sprintf("phys: no block starts at %v inside %v's reserved ranges", at, vb))
			}
			order := int(m & metaOrder)
			if m&metaFree != 0 {
				free = append(free, blockKey{at, order})
			} else {
				b.chunks[fi>>chunkShift].owner[fi&chunkMask] = 0
			}
			at += Addr(OrderBytes(order))
		}
	}
	for _, blk := range free {
		b.removeFree(blk.base, blk.order)
		b.freeAndMerge(blk.base, blk.order, 0)
	}
	b.reservedAt[oi] = ranges[:0]
}

// LargestFreeOrder returns the order of the largest allocatable contiguous
// block available to vb at each priority level combined (i.e. the largest
// block Alloc(vb, order) would currently succeed for), or -1 when nothing
// is free.
func (b *Buddy) LargestFreeOrder(vb Owner) int {
	b.settle()
	vbIdx, hasIdx := b.ownerIdx[vb]
	for o := MaxOrder; o >= 0; o-- {
		if b.cntUnres[o] > 0 {
			return o
		}
		own := int32(0)
		if hasIdx {
			own = b.cntResOwn[vbIdx][o]
		}
		if own > 0 {
			return o
		}
		if int32(b.cntRes[o])-own > 0 {
			return o
		}
	}
	return -1
}

// LargestUnreservedOrder returns the order of the largest unreserved free
// block (the contiguity Reserve can still satisfy), or -1 when none.
func (b *Buddy) LargestUnreservedOrder() int {
	b.settle()
	for o := MaxOrder; o >= 0; o-- {
		if b.cntUnres[o] > 0 {
			return o
		}
	}
	return -1
}

// CheckInvariants verifies structural invariants and returns an error
// describing the first violation, after materializing any open frame run.
// It is exercised by the property tests.
// Its cost follows the memory the allocator has touched: it skips nil
// chunks, where no block starts, and checks reservation ownership range by
// range rather than frame by frame.
func (b *Buddy) CheckInvariants() error {
	b.settle()
	// Unreserve finds an owner's blocks by walking its recorded ranges: the
	// ranges of all owners must be disjoint, and every block must carry the
	// owner index of the ranges it lies in (0 outside all of them). spans
	// lists the ranges in ascending order, adjacent ranges of one owner
	// merged, so a block of a non-zero owner must lie inside one span.
	type span struct {
		lo, hi uint64 // frames [lo, hi)
		oi     uint16
	}
	var spans []span
	for oi, ranges := range b.reservedAt {
		for _, r := range ranges {
			lo := uint64(r.base) >> FrameShift
			hi := lo + OrderBytes(r.order)>>FrameShift
			if hi > b.nframes {
				return fmt.Errorf("owner index %d reserved range %v order %d beyond capacity", oi, r.base, r.order)
			}
			if oi != 0 { // index 0 is "unreserved": its ranges would mark nothing
				spans = append(spans, span{lo, hi, uint16(oi)})
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	merged := spans[:0]
	for _, s := range spans {
		if n := len(merged); n > 0 {
			last := &merged[n-1]
			if s.lo < last.hi {
				return fmt.Errorf("reserved ranges of owner indexes %d and %d overlap at %v",
					last.oi, s.oi, Addr(s.lo<<FrameShift))
			}
			if s.lo == last.hi && s.oi == last.oi {
				last.hi = s.hi
				continue
			}
		}
		merged = append(merged, s)
	}
	spans = merged

	var free, reserved, total uint64
	var cntUnres, cntRes [MaxOrder + 1]int
	prevEnd := uint64(0)
	next := 0 // first span ending above the current block's base
	for ci, c := range b.chunks {
		if c == nil {
			continue
		}
		for i, m := range c.meta {
			if m&metaLive == 0 {
				continue
			}
			fi := uint64(ci)<<chunkShift + uint64(i)
			oi := c.owner[i]
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
				if oi == 0 {
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
			end := fi + size>>FrameShift
			for next < len(spans) && spans[next].hi <= fi {
				next++
			}
			meets := next < len(spans) && spans[next].lo < end
			switch {
			case oi == 0 && meets:
				return fmt.Errorf("block %v with owner index 0 covers %v in owner index %d's reserved ranges",
					Addr(base), Addr(max(fi, spans[next].lo)<<FrameShift), spans[next].oi)
			case oi != 0 && (!meets || spans[next].oi != oi || spans[next].lo > fi || spans[next].hi < end):
				return fmt.Errorf("block %v order %d with owner index %d is not inside that owner's reserved ranges",
					Addr(base), o, oi)
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
			return fmt.Errorf("order %d free counts (%d unres, %d res) disagree with blocks (%d, %d)",
				o, b.cntUnres[o], b.cntRes[o], cntUnres[o], cntRes[o])
		}
	}
	return nil
}
