package cache

import "testing"

func BenchmarkCacheHit(b *testing.B) {
	c := New("L1", 32<<10, 8)
	c.Insert(0, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(0, false)
	}
}

func BenchmarkHierarchyL1Hit(b *testing.B) {
	h := NewHierarchy(New("L1", 32<<10, 8), New("L2", 256<<10, 8), New("LLC", 8<<20, 16), DefaultLatencies)
	h.Fill(0, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Access(0, false)
	}
}

func BenchmarkHierarchyMissFill(b *testing.B) {
	h := NewHierarchy(New("L1", 32<<10, 8), New("L2", 256<<10, 8), New("LLC", 8<<20, 16), DefaultLatencies)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		line := uint64(i) * 64
		h.Access(line, false)
		h.Fill(line, false)
	}
}

func BenchmarkCacheInsertEvict(b *testing.B) {
	c := New("L1", 32<<10, 8)
	// Working set twice the capacity: every insert past warm-up evicts.
	lines := 2 * (32 << 10 / 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(i%lines)*64, i%2 == 0)
	}
}

func BenchmarkCacheMarkDirty(b *testing.B) {
	c := New("L1", 32<<10, 8)
	c.Insert(0, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.MarkDirty(0)
	}
}

// BenchmarkCacheLLCRandom drives an 8 MB/16-way LLC with uniformly random
// aligned lines over twice its capacity: every probe scans a full set and
// about half of them miss and evict, so the set layout, not one hot way,
// decides the cost.
func BenchmarkCacheLLCRandom(b *testing.B) {
	c := New("LLC", 8<<20, 16)
	const lineBits = 18 // 2× the LLC's 1<<17 lines
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return (rng >> 20 & (1<<lineBits - 1)) << LineShift
	}
	for i := 0; i < 1<<lineBits; i++ {
		if line := next(); !c.Lookup(line, false) {
			c.Insert(line, false)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := next()
		if !c.Lookup(line, i&7 == 0) {
			c.Insert(line, i&7 == 0)
		}
	}
}
