package phys

import "testing"

func BenchmarkBuddyAllocFree(b *testing.B) {
	bd := NewBuddy(1 << 30)
	owner := vb(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, ok := bd.Alloc(owner, 0)
		if !ok {
			b.Fatal("exhausted")
		}
		bd.Free(a, 0)
	}
}

func BenchmarkBuddyAllocAt(b *testing.B) {
	bd := NewBuddy(1 << 30)
	owner := vb(1)
	base, _ := bd.Reserve(owner, 18) // 1 GB reservation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := base + Addr((i%1000)*FrameSize)
		if !bd.AllocAt(owner, at, 0) {
			b.Fatal("AllocAt failed")
		}
		bd.Free(at, 0)
	}
}

// BenchmarkBuddyReserveFill is a directly-mapped VB's prefill and teardown:
// reserve 1 GB, materialize every 4 KB frame of it in place, then release
// the reservation. Each iteration builds its own allocator, so it allocates
// and stays out of the zero-allocs gate.
func BenchmarkBuddyReserveFill(b *testing.B) {
	owner := vb(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd := NewBuddy(1 << 30)
		base, ok := bd.Reserve(owner, 18)
		if !ok {
			b.Fatal("Reserve failed")
		}
		for at := base; at < base+1<<30; at += FrameSize {
			if !bd.AllocAt(owner, at, 0) {
				b.Fatal("AllocAt failed")
			}
		}
		bd.Unreserve(owner)
	}
}

// BenchmarkAllocOrder0 is the MTL's region-by-region prefill as the
// allocator sees it: order-0 frames taken one call at a time in ascending
// order, by Alloc from a fresh 16 GB pool and by AllocAt through a 1 GB
// reservation in one. An exhausted allocator is replaced off the clock, so
// the per-op allocations are the record chunks the frames land in.
func BenchmarkAllocOrder0(b *testing.B) {
	owner := vb(1)
	b.Run("Alloc", func(b *testing.B) {
		b.ReportAllocs()
		bd := NewBuddy(16 << 30)
		for i := 0; i < b.N; i++ {
			if _, ok := bd.Alloc(owner, 0); !ok {
				b.StopTimer()
				bd = NewBuddy(16 << 30)
				b.StartTimer()
				i--
			}
		}
	})
	b.Run("AllocAt", func(b *testing.B) {
		b.ReportAllocs()
		var bd *Buddy
		var at, end Addr
		for i := 0; i < b.N; i++ {
			if at == end {
				b.StopTimer()
				bd = NewBuddy(16 << 30)
				at, _ = bd.Reserve(owner, 18)
				end = at + 1<<30
				b.StartTimer()
			}
			if !bd.AllocAt(owner, at, 0) {
				b.Fatalf("AllocAt(%v) failed", at)
			}
			at += FrameSize
		}
	})
}
