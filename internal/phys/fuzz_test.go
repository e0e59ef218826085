package phys

import (
	"encoding/binary"
	"testing"
)

// FuzzBuddyOps drives a pool of eight record chunks through operations
// decoded from the input, four bytes each: kind and owner, an order or
// offset byte, and a 16-bit position. AllocAt mostly targets frames within
// two of a chunk boundary, where a block's record and its enclosing block's
// record sit in different chunks. The invariants are checked after every
// operation and each Unreserve against the shadow index of reference_test.go.
func FuzzBuddyOps(f *testing.F) {
	f.Add([]byte{3, 16, 0, 0, 1, 0, 0, 1, 1, 1, 0, 2, 1, 3, 0, 3, 4, 0, 0, 0})
	f.Add([]byte{0, 14, 0, 0, 1, 0x81, 0x40, 0, 2, 0, 0, 0, 11, 17, 0, 0, 9, 4, 7, 0, 12, 0, 0, 0})
	f.Add([]byte{3, 15, 0, 0, 11, 15, 0, 0, 1, 2, 1, 0, 9, 0, 2, 0, 4, 0, 0, 0, 12, 0, 0, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const frames = 8 * chunkFrames
		b := NewBuddy(frames * FrameSize)
		owners := [4]Owner{vb(1), vb(2), vb(3), vb(4)}
		sh := shadowIndex{}
		var outstanding []blockKey
		for ; len(data) >= 4; data = data[4:] {
			owner := owners[data[0]>>3&3]
			arg, pos := int(data[1]), int(binary.LittleEndian.Uint16(data[2:4]))
			switch data[0] % 5 {
			case 0: // Alloc, up to orders whose halves span chunks
				order := arg % (chunkShift + 4)
				if base, ok := b.Alloc(owner, order); ok {
					sh.allocated(b, base, order)
					outstanding = append(outstanding, blockKey{base, order})
				}
			case 1: // AllocAt
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
				at := Addr(fi << FrameShift)
				if b.AllocAt(owner, at, order) {
					sh.allocated(b, at, order)
					outstanding = append(outstanding, blockKey{at, order})
				}
			case 2: // Free
				if len(outstanding) == 0 {
					break
				}
				i := pos % len(outstanding)
				k := outstanding[i]
				outstanding[i] = outstanding[len(outstanding)-1]
				outstanding = outstanding[:len(outstanding)-1]
				sh.freed(b, k.base, k.order)
				b.Free(k.base, k.order)
			case 3: // Reserve
				b.Reserve(owner, arg%(chunkShift+4))
			case 4: // Unreserve
				unreserveAgainstShadow(t, b, sh, owner)
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("op %x: %v", data[:4], err)
			}
		}
	})
}
