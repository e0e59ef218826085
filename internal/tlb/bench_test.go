package tlb

import "testing"

func BenchmarkTLBLookupHit(b *testing.B) {
	t := New("L1", 1, 64)
	t.Insert(42, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Lookup(42)
	}
}

func BenchmarkRangeTLBPageHit(b *testing.B) {
	t := NewRange("MTL", 64)
	t.Insert(RangeEntry{Base: 0x1000, Size: 4096, Phys: 0x9000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Lookup(0x1abc)
	}
}

func BenchmarkRangeTLBBigEntryHit(b *testing.B) {
	t := NewRange("MTL", 64)
	t.Insert(RangeEntry{Base: 1 << 30, Size: 4 << 30, Phys: 0})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Lookup(1<<30 + uint64(i)%(4<<30))
	}
}

func BenchmarkTLBInsertEvict(b *testing.B) {
	t := New("L1", 16, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := uint64(i % 128) // 2x capacity: constant eviction churn
		t.Insert(k, k+1)
	}
}

func BenchmarkRangeTLBInsertEvict(b *testing.B) {
	t := NewRange("MTL", 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := uint64(i%128) << pageShift // 2x capacity: constant eviction churn
		t.Insert(RangeEntry{Base: base, Size: 4096, Phys: base})
	}
}

// BenchmarkTLBFullyAssocSpread hits a 64-way fully associative TLB with a
// pseudo-random stream over 48 resident keys, so hits land at every
// recency depth (a fixed cyclic order would always hit the LRU entry).
func BenchmarkTLBFullyAssocSpread(b *testing.B) {
	t := New("L1", 1, 64)
	const keys = 48
	var seq [1024]uint64
	rng := uint64(7)
	for i := range seq {
		rng = rng*6364136223846793005 + 1442695040888963407
		seq[i] = (rng >> 33) % keys
	}
	for k := uint64(0); k < keys; k++ {
		t.Insert(k, k+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(seq[i&(len(seq)-1)])
	}
}
