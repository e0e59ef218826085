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

// mtlL2Entries matches the MTL's default second-level TLB, the larger of
// the two levels every migrated region is invalidated in.
const mtlL2Entries = 512

// fillPages fills t with one 4 KB entry per page in [first, first+n).
func fillPages(t *RangeTLB, first, n uint64) {
	for pn := first; pn < first+n; pn++ {
		t.Insert(RangeEntry{Base: pn << pageShift, Size: 4096, Phys: pn << pageShift})
	}
}

// BenchmarkRangeTLBInvalidatePage times the per-region invalidation that
// migration and copy-on-write issue: a 4 KB range, served by probing the
// page index for the two keys that can overlap it. Each iteration drops a
// resident page and reinserts it, the way the next translation would, so
// the TLB stays full.
func BenchmarkRangeTLBInvalidatePage(b *testing.B) {
	t := NewRange("MTL", mtlL2Entries)
	fillPages(t, 0, mtlL2Entries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pn := uint64(i % mtlL2Entries)
		if t.InvalidateRange(pn<<pageShift, 4096) != 1 {
			b.Fatal("resident page not dropped")
		}
		t.Insert(RangeEntry{Base: pn << pageShift, Size: 4096, Phys: pn << pageShift})
	}
}

// BenchmarkRangeTLBInvalidateWide times a whole-VB invalidation (disable or
// downgrade of a 1 GB VB): the range spans more pages than the index holds,
// so InvalidateRange scans the index and sorts the keys it collects. One
// resident page and one big entry lie inside the range and are reinserted
// after each drop.
func BenchmarkRangeTLBInvalidateWide(b *testing.B) {
	const vbBase, vbSize = 1 << 40, 1 << 30
	t := NewRange("MTL", mtlL2Entries)
	fillPages(t, 0, mtlL2Entries-2)
	inside := RangeEntry{Base: vbBase + 7<<pageShift, Size: 4096, Phys: 0x7000}
	big := RangeEntry{Base: vbBase + vbSize/2, Size: vbSize / 2, Phys: 0}
	t.Insert(inside)
	t.Insert(big)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t.InvalidateRange(vbBase, vbSize) != 2 {
			b.Fatal("entries inside the range not dropped")
		}
		t.Insert(inside)
		t.Insert(big)
	}
}
