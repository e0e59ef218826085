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
