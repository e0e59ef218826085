package cache

import (
	"fmt"
	"slices"
	"testing"
)

// refWay and refCache are the per-way LRU-stamp cache that recency-ordered
// sets replaced, kept as a reference model: every way carries a tag, valid
// and dirty flags and a unique `used` stamp from a monotonic tick; an
// insert fills the first invalid way by index, else the minimum stamp.
type refWay struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64
}

type refCache struct {
	Stats    Stats
	ways     int
	setMask  uint64
	lines    []refWay
	tick     uint64
	occupied int
}

func newRefCache(sizeBytes, ways int) *refCache {
	sets := sizeBytes / (ways * LineSize)
	return &refCache{ways: ways, setMask: uint64(sets - 1), lines: make([]refWay, sets*ways)}
}

func (c *refCache) probe(line uint64) int {
	base := int((line>>LineShift)&c.setMask) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == line {
			return i
		}
	}
	return -1
}

func (c *refCache) Lookup(line uint64, write bool) bool {
	if i := c.probe(line); i >= 0 {
		c.tick++
		c.lines[i].used = c.tick
		if write {
			c.lines[i].dirty = true
		}
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	return false
}

func (c *refCache) MarkDirty(line uint64) bool {
	if i := c.probe(line); i >= 0 {
		c.tick++
		c.lines[i].used = c.tick
		c.lines[i].dirty = true
		return true
	}
	return false
}

func (c *refCache) Contains(line uint64) bool { return c.probe(line) >= 0 }

func (c *refCache) IsDirty(line uint64) bool {
	i := c.probe(line)
	return i >= 0 && c.lines[i].dirty
}

func (c *refCache) Insert(line uint64, dirty bool) Victim {
	base := int((line>>LineShift)&c.setMask) * c.ways
	victimIdx := base
	var oldest uint64 = ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == line {
			c.tick++
			c.lines[i].used = c.tick
			c.lines[i].dirty = c.lines[i].dirty || dirty
			return Victim{}
		}
		if !c.lines[i].valid {
			if oldest != 0 {
				victimIdx = i
				oldest = 0
			}
			continue
		}
		if c.lines[i].used < oldest {
			oldest = c.lines[i].used
			victimIdx = i
		}
	}
	var v Victim
	w := &c.lines[victimIdx]
	if w.valid {
		v = Victim{Line: w.tag, Dirty: w.dirty, Valid: true}
		c.occupied--
		c.Stats.Evictions++
		if w.dirty {
			c.Stats.Writebacks++
		}
	}
	c.tick++
	*w = refWay{tag: line, valid: true, dirty: dirty, used: c.tick}
	c.occupied++
	return v
}

func (c *refCache) Invalidate(line uint64) (wasPresent, wasDirty bool) {
	i := c.probe(line)
	if i < 0 {
		return false, false
	}
	wasDirty = c.lines[i].dirty
	c.lines[i] = refWay{}
	c.occupied--
	return true, wasDirty
}

func (c *refCache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = refWay{}
	}
	c.occupied = 0
}

func (c *refCache) InvalidateIf(pred func(line uint64) bool) int {
	var lines []uint64
	for i := range c.lines {
		if c.lines[i].valid {
			lines = append(lines, c.lines[i].tag)
		}
	}
	slices.Sort(lines)
	doomed := 0
	for _, line := range lines {
		if pred(line) {
			c.Invalidate(line)
			doomed++
		}
	}
	return doomed
}

// refHierarchy is the serial Hierarchy over reference caches, with the
// two-probe Fill (Insert clean, then MarkDirty on a write) that the fused
// Insert(line, write) replaced.
type refHierarchy struct {
	L1, L2, LLC *refCache
	Lat         Latencies
	upper       *[]*refCache
}

func newRefHierarchy(l1, l2, llc *refCache) *refHierarchy {
	return &refHierarchy{L1: l1, L2: l2, LLC: llc, Lat: DefaultLatencies, upper: &[]*refCache{l1, l2}}
}

func (h *refHierarchy) shareLLC(l1, l2 *refCache) *refHierarchy {
	*h.upper = append(*h.upper, l1, l2)
	return &refHierarchy{L1: l1, L2: l2, LLC: h.LLC, Lat: h.Lat, upper: h.upper}
}

func (h *refHierarchy) Access(line uint64, write bool) AccessResult {
	line = LineOf(line)
	if h.L1.Lookup(line, write) {
		return AccessResult{Latency: h.Lat.L1Hit(), HitLevel: 1}
	}
	if h.L2.Lookup(line, write) {
		return AccessResult{Latency: h.Lat.L2Hit(), HitLevel: 2, Writebacks: h.fillL1(line, write, nil)}
	}
	if h.LLC.Lookup(line, write) {
		return AccessResult{Latency: h.Lat.LLCHit(), HitLevel: 3, Writebacks: h.fillUpper(line, write, nil)}
	}
	return AccessResult{Latency: h.Lat.LLCHit(), MissedLLC: true}
}

func (h *refHierarchy) Fill(line uint64, write bool) []uint64 {
	line = LineOf(line)
	var wbs []uint64
	if v := h.LLC.Insert(line, false); v.Valid {
		wbs = h.evictFromLLC(v, wbs)
	}
	if write {
		h.LLC.MarkDirty(line)
	}
	return h.fillUpper(line, write, wbs)
}

func (h *refHierarchy) WalkerAccess(line uint64) (uint64, bool, []uint64) {
	line = LineOf(line)
	if h.L2.Lookup(line, false) {
		return h.Lat.L2Hit(), false, nil
	}
	if h.LLC.Lookup(line, false) {
		return h.Lat.LLCHit(), false, nil
	}
	var wbs []uint64
	if v := h.LLC.Insert(line, false); v.Valid {
		wbs = h.evictFromLLC(v, wbs)
	}
	if v := h.L2.Insert(line, false); v.Valid && v.Dirty {
		if inner := h.LLC.Insert(v.Line, true); inner.Valid {
			wbs = h.evictFromLLC(inner, wbs)
		}
	}
	return h.Lat.LLCHit(), true, wbs
}

func (h *refHierarchy) fillL1(line uint64, write bool, wbs []uint64) []uint64 {
	if v := h.L1.Insert(line, write); v.Valid && v.Dirty {
		if !h.L2.Lookup(v.Line, true) {
			if iv := h.L2.Insert(v.Line, true); iv.Valid && iv.Dirty {
				wbs = h.spillToLLC(iv.Line, wbs)
			}
		}
	}
	return wbs
}

func (h *refHierarchy) fillUpper(line uint64, write bool, wbs []uint64) []uint64 {
	if v := h.L2.Insert(line, false); v.Valid && v.Dirty {
		wbs = h.spillToLLC(v.Line, wbs)
	}
	return h.fillL1(line, write, wbs)
}

func (h *refHierarchy) spillToLLC(line uint64, wbs []uint64) []uint64 {
	if h.LLC.MarkDirty(line) {
		return wbs
	}
	if v := h.LLC.Insert(line, true); v.Valid {
		wbs = h.evictFromLLC(v, wbs)
	}
	return wbs
}

func (h *refHierarchy) evictFromLLC(v Victim, wbs []uint64) []uint64 {
	dirty := v.Dirty
	for _, c := range *h.upper {
		if present, wasDirty := c.Invalidate(v.Line); present && wasDirty {
			dirty = true
		}
	}
	if dirty {
		wbs = append(wbs, v.Line)
	}
	return wbs
}

// churnRNG is the seeded generator the differential tests share.
type churnRNG uint64

func (r *churnRNG) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 16
}

// TestCacheMatchesStampReference drives the recency-ordered Cache and the
// stamp reference in step through a seeded churn — demand lookups
// (read and write), MarkDirty, inserts of present and absent lines,
// mid-set invalidations, InvalidateAll and InvalidateIf — over geometries
// from one line to a 32-way set, including a fully associative 64-way
// cache and a 12-way (non-power-of-two) one. After every operation the
// return values, victims, Stats, occupancy, Contains/IsDirty of every line
// ever touched and the line sequence InvalidateIf hands its predicate must
// agree exactly.
func TestCacheMatchesStampReference(t *testing.T) {
	geoms := []struct{ size, ways int }{
		{LineSize, 1},          // 1 set × 1 way
		{64 * LineSize, 64},    // fully associative
		{16 * 4 * LineSize, 4}, // 16 sets × 4 ways
		{8 * 8 * LineSize, 8},
		{4 * 12 * LineSize, 12},
		{2 * 32 * LineSize, 32},
	}
	steps := 20_000
	if testing.Short() {
		steps = 5_000
	}
	for gi, g := range geoms {
		t.Run(fmt.Sprintf("%dx%d", g.size/(g.ways*LineSize), g.ways), func(t *testing.T) {
			got, want := New("c", g.size, g.ways), newRefCache(g.size, g.ways)
			rng := churnRNG(gi + 1)
			// Lines span 3× capacity so sets fill, evict and refill.
			span := uint64(3 * g.size / LineSize)
			var touched []uint64 // every line ever named, in first-use order
			seen := map[uint64]bool{}
			var inserts, evictions, midInvals, predCalls int
			for step := 0; step < steps; step++ {
				line := rng.next() % span << LineShift
				if !seen[line] {
					seen[line] = true
					touched = append(touched, line)
				}
				switch op := rng.next() % 100; {
				case op < 35:
					w := rng.next()%3 == 0
					if g, r := got.Lookup(line, w), want.Lookup(line, w); g != r {
						t.Fatalf("step %d: Lookup(%#x, %v) = %v, reference %v", step, line, w, g, r)
					}
				case op < 45:
					if g, r := got.MarkDirty(line), want.MarkDirty(line); g != r {
						t.Fatalf("step %d: MarkDirty(%#x) = %v, reference %v", step, line, g, r)
					}
				case op < 85:
					d := rng.next()%2 == 0
					g, r := got.Insert(line, d), want.Insert(line, d)
					if g != r {
						t.Fatalf("step %d: Insert(%#x, %v) = %+v, reference %+v", step, line, d, g, r)
					}
					inserts++
					if g.Valid {
						evictions++
					}
				case op < 97:
					// Prefer a resident line so the invalidation lands mid-set.
					if rng.next()%4 != 0 {
						for try := 0; try < 8; try++ {
							if l := touched[rng.next()%uint64(len(touched))]; want.Contains(l) {
								line = l
								break
							}
						}
					}
					gp, gd := got.Invalidate(line)
					rp, rd := want.Invalidate(line)
					if gp != rp || gd != rd {
						t.Fatalf("step %d: Invalidate(%#x) = %v,%v, reference %v,%v", step, line, gp, gd, rp, rd)
					}
					if gp {
						midInvals++
					}
				case op < 99:
					var gs, rs []uint64
					mod := 2 + rng.next()%3
					n := got.InvalidateIf(func(l uint64) bool { gs = append(gs, l); return l>>LineShift%mod == 0 })
					m := want.InvalidateIf(func(l uint64) bool { rs = append(rs, l); return l>>LineShift%mod == 0 })
					if n != m || !slices.Equal(gs, rs) {
						t.Fatalf("step %d: InvalidateIf dropped %d visiting %v, reference %d visiting %v", step, n, gs, m, rs)
					}
					predCalls += len(gs)
				default:
					got.InvalidateAll()
					want.InvalidateAll()
				}
				if got.Stats != want.Stats || got.OccupiedLines() != want.occupied {
					t.Fatalf("step %d: stats %+v occupied %d, reference %+v occupied %d",
						step, got.Stats, got.OccupiedLines(), want.Stats, want.occupied)
				}
				for _, l := range touched {
					if got.Contains(l) != want.Contains(l) || got.IsDirty(l) != want.IsDirty(l) {
						t.Fatalf("step %d: line %#x contains/dirty %v/%v, reference %v/%v",
							step, l, got.Contains(l), got.IsDirty(l), want.Contains(l), want.IsDirty(l))
					}
				}
			}
			if evictions == 0 || midInvals == 0 || predCalls == 0 {
				t.Fatalf("churn missed a path: %d inserts, %d evictions, %d invalidations, %d pred calls",
					inserts, evictions, midInvals, predCalls)
			}
		})
	}
}

// TestHierarchyMatchesStampReference runs a two-core Hierarchy over a
// shared LLC and its reference twin (stamp caches, two-probe Fill) through
// one seeded stream of demand accesses, fills after LLC misses and walker
// accesses, and compares every AccessResult, every Fill/WalkerAccess
// writeback list and each level's Stats after each step.
func TestHierarchyMatchesStampReference(t *testing.T) {
	mk := func(name string, size, ways int) (*Cache, *refCache) {
		return New(name, size, ways), newRefCache(size, ways)
	}
	l1a, rl1a := mk("L1a", 1<<10, 8)
	l2a, rl2a := mk("L2a", 4<<10, 8)
	llc, rllc := mk("LLC", 16<<10, 16)
	l1b, rl1b := mk("L1b", 1<<10, 8)
	l2b, rl2b := mk("L2b", 4<<10, 8)
	ha := NewHierarchy(l1a, l2a, llc, DefaultLatencies)
	hb := ha.ShareLLC(l1b, l2b)
	ra := newRefHierarchy(rl1a, rl2a, rllc)
	rb := ra.shareLLC(rl1b, rl2b)
	cores := []struct {
		h *Hierarchy
		r *refHierarchy
	}{{ha, ra}, {hb, rb}}
	caches := []*Cache{l1a, l2a, llc, l1b, l2b}
	refs := []*refCache{rl1a, rl2a, rllc, rl1b, rl2b}

	rng := churnRNG(11)
	var writebacks, walkerMisses int
	for step := 0; step < 200_000; step++ {
		c := cores[rng.next()%2]
		// 4× the LLC's lines, plus a sub-line offset Access must strip.
		addr := rng.next()%(4*256)<<LineShift | rng.next()%LineSize
		if rng.next()%8 == 0 {
			gl, gm, gw := c.h.WalkerAccess(addr)
			rl, rm, rw := c.r.WalkerAccess(addr)
			if gl != rl || gm != rm || !slices.Equal(gw, rw) {
				t.Fatalf("step %d: WalkerAccess(%#x) = %d,%v,%v, reference %d,%v,%v", step, addr, gl, gm, gw, rl, rm, rw)
			}
			if gm {
				walkerMisses++
			}
			writebacks += len(gw)
		} else {
			write := rng.next()%3 == 0
			g, r := c.h.Access(addr, write), c.r.Access(addr, write)
			if g.Latency != r.Latency || g.MissedLLC != r.MissedLLC || g.HitLevel != r.HitLevel ||
				!slices.Equal(g.Writebacks, r.Writebacks) {
				t.Fatalf("step %d: Access(%#x, %v) = %+v, reference %+v", step, addr, write, g, r)
			}
			writebacks += len(g.Writebacks)
			if g.MissedLLC {
				gw, rw := c.h.Fill(addr, write), c.r.Fill(addr, write)
				if !slices.Equal(gw, rw) {
					t.Fatalf("step %d: Fill(%#x, %v) wrote back %v, reference %v", step, addr, write, gw, rw)
				}
				writebacks += len(gw)
			}
		}
		for i, cc := range caches {
			if cc.Stats != refs[i].Stats {
				t.Fatalf("step %d: %s stats %+v, reference %+v", step, cc.Name, cc.Stats, refs[i].Stats)
			}
		}
	}
	if writebacks == 0 || walkerMisses == 0 {
		t.Fatalf("stream missed a path: %d writebacks, %d walker misses", writebacks, walkerMisses)
	}
}
