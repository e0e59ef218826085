package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCacheGeometry(t *testing.T) {
	c := New("L1", 32<<10, 8)
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Fatalf("geometry = %dx%d, want 64x8", c.Sets(), c.Ways())
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", 100, 3)
}

func TestCacheHitMiss(t *testing.T) {
	c := New("c", 4<<10, 4) // 16 sets
	line := uint64(0x1000)
	if c.Lookup(line, false) {
		t.Fatal("hit on empty cache")
	}
	c.Insert(line, false)
	if !c.Lookup(line, false) {
		t.Fatal("miss after insert")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New("c", 2*LineSize, 2) // 1 set, 2 ways
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Insert(a, false)
	c.Insert(b, false)
	c.Lookup(a, false) // a is now MRU
	v := c.Insert(d, false)
	if !v.Valid || v.Line != b {
		t.Fatalf("victim = %+v, want line %d", v, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := New("c", LineSize, 1) // 1 line total
	c.Insert(0, false)
	c.Lookup(0, true) // dirty it
	v := c.Insert(64, false)
	if !v.Valid || !v.Dirty || v.Line != 0 {
		t.Fatalf("victim = %+v, want dirty line 0", v)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestCacheInsertMergesDirty(t *testing.T) {
	c := New("c", 4<<10, 4)
	c.Insert(0, true)
	c.Insert(0, false) // must not clear dirty
	if !c.IsDirty(0) {
		t.Fatal("dirty bit lost by duplicate insert")
	}
	if c.OccupiedLines() != 1 {
		t.Fatalf("occupied = %d", c.OccupiedLines())
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := New("c", 4<<10, 4)
	c.Insert(0, true)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Fatalf("Invalidate = %v,%v", present, dirty)
	}
	if present, _ := c.Invalidate(0); present {
		t.Fatal("double invalidate reported presence")
	}
}

func TestCacheInvalidateIf(t *testing.T) {
	c := New("c", 4<<10, 4)
	for i := uint64(0); i < 16; i++ {
		c.Insert(i*64, false)
	}
	n := c.InvalidateIf(func(line uint64) bool { return line < 8*64 })
	if n != 8 {
		t.Fatalf("invalidated %d, want 8", n)
	}
	if c.OccupiedLines() != 8 {
		t.Fatalf("occupied = %d, want 8", c.OccupiedLines())
	}
}

// TestCacheNoDuplicateTags is a property test: after any access sequence a
// line address appears at most once in the cache.
func TestCacheNoDuplicateTags(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("c", 2<<10, 2)
		lines := map[uint64]bool{}
		for i := 0; i < 500; i++ {
			line := uint64(rng.Intn(64)) * 64
			if rng.Intn(2) == 0 {
				c.Lookup(line, rng.Intn(2) == 0)
			} else {
				if v := c.Insert(line, false); v.Valid {
					delete(lines, v.Line)
				}
				lines[line] = true
			}
		}
		return c.OccupiedLines() <= c.Sets()*c.Ways() && len(lines) >= c.OccupiedLines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCacheCapacityBound(t *testing.T) {
	c := New("c", 8<<10, 8)
	for i := uint64(0); i < 10000; i++ {
		c.Insert(i*64, i%2 == 0)
	}
	if c.OccupiedLines() > c.Sets()*c.Ways() {
		t.Fatalf("occupied %d exceeds capacity %d", c.OccupiedLines(), c.Sets()*c.Ways())
	}
}

func TestCacheMarkDirty(t *testing.T) {
	c := New("L1", 1<<10, 8)
	if c.MarkDirty(0x40) {
		t.Fatal("MarkDirty hit on an empty cache")
	}
	if c.Stats.Hits != 0 || c.Stats.Misses != 0 {
		t.Fatalf("MarkDirty touched stats: %+v", c.Stats)
	}
	c.Insert(0x40, false)
	if c.IsDirty(0x40) {
		t.Fatal("clean insert came out dirty")
	}
	if !c.MarkDirty(0x40) {
		t.Fatal("MarkDirty missed a present line")
	}
	if !c.IsDirty(0x40) {
		t.Fatal("MarkDirty did not set the dirty bit")
	}
	if c.Stats.Hits != 0 || c.Stats.Misses != 0 {
		t.Fatalf("MarkDirty touched stats: %+v", c.Stats)
	}
	// MarkDirty refreshes recency exactly like a write hit: in a one-set
	// cache, fill all 8 ways, re-touch line 0 via MarkDirty, then overflow
	// the set. Line 0 must survive (line at 1*64 is now the LRU victim).
	c2 := New("L2", 512, 8)
	for i := uint64(0); i < 8; i++ {
		c2.Insert(i*64, false)
	}
	c2.MarkDirty(0)
	c2.Insert(8*64, false)
	if !c2.Contains(0) {
		t.Fatal("MarkDirty did not refresh recency: line 0 was evicted")
	}
	if c2.Contains(1 * 64) {
		t.Fatal("wrong victim: expected line 0x40 (the LRU) to be evicted")
	}
}

// Repeated InvalidateAll/refill cycles must not allocate: InvalidateAll
// clears the flat line array in place and Insert recycles it.
func TestCacheInvalidateRefillNoAllocs(t *testing.T) {
	c := New("L1", 1<<12, 8)
	for i := uint64(0); i < 64; i++ {
		c.Insert(i*64, i%2 == 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.InvalidateAll()
		for i := uint64(0); i < 64; i++ {
			c.Insert(i*64, i%2 == 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("invalidate/refill cycle allocates %v times", allocs)
	}
}

// Tag words carry flags in a line address's low bits, so Insert must
// refuse an address that is not LineSize-aligned rather than corrupt the
// set.
func TestCacheInsertUnalignedPanics(t *testing.T) {
	c := New("L1", 1<<10, 8)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Insert of an unaligned line did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "unaligned line 0x41") {
			t.Fatalf("panic message %q does not name the unaligned line", msg)
		}
		if c.OccupiedLines() != 0 {
			t.Fatalf("failed Insert left %d lines behind", c.OccupiedLines())
		}
	}()
	c.Insert(0x41, false)
}
