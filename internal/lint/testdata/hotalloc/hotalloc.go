// Package hotalloc is the fixture for the hotalloc analyzer: allocation
// and dynamic dispatch are flagged only inside //vbi:hotpath functions.
package hotalloc

import (
	"fmt"
	"time"
)

type counter interface{ Bump() }

//vbi:hotpath
func hot(n int, c counter) []int {
	s := make([]int, 0, n) // want `hot path hot: make allocates`
	for i := 0; i < n; i++ {
		s = append(s, i) // want `hot path hot: append may grow and reallocate`
		c.Bump()         // want `hot path hot: interface method call Bump`
	}
	return s
}

//vbi:hotpath
func hotFmt(x int) string {
	return fmt.Sprintf("%d", x) // want `hot path hotFmt: fmt.Sprintf allocates and reflects`
}

//vbi:hotpath
func hotEscape(x int) *int {
	p := new(int) // want `hot path hotEscape: new allocates`
	*p = x
	return p
}

type point struct{ x, y int }

//vbi:hotpath
func hotComposite(x int) *point {
	return &point{x: x} // want `hot path hotComposite: &composite-literal escapes to the heap`
}

//vbi:hotpath
func hotClosure(xs []int) func() int {
	return func() int { // want `hot path hotClosure: function literal allocates a closure per call`
		return len(xs)
	}
}

//vbi:hotpath
func hotConv(s string) []byte {
	return []byte(s) // want `hot path hotConv: string/byte-slice conversion copies and allocates`
}

// cold is unmarked: the same body produces no diagnostics.
func cold(n int, c counter) []int {
	s := make([]int, 0, n)
	c.Bump()
	return append(s, n)
}

// hotIndexed shows the cheap patterns that stay silent on a hot path:
// indexing, arithmetic, concrete method calls, len/cap.
//
//vbi:hotpath
func hotIndexed(xs []int, p *point) int {
	t := 0
	for i := 0; i < len(xs); i++ {
		t += xs[i]
	}
	t += p.x
	return t
}

//vbi:hotpath
func hotAllowed(n int) []int {
	//vbi:allow hotalloc fixture: setup allocation, amortized over the run
	return make([]int, n)
}

// timer mirrors obs.Timer: a value type with concrete methods, the shape
// the runner threads through its per-job dispatch path. The fixture
// module cannot import vbi packages, so the contract is pinned here in
// miniature: value construction and concrete method calls stay silent on
// a hot path, while the tempting pointer-and-closure variants are
// exactly what the analyzer exists to reject.
type timer struct {
	queuedAt  time.Time
	startedAt time.Time
}

func startTimer(queuedAt time.Time) timer {
	return timer{queuedAt: queuedAt, startedAt: time.Now()}
}

func (t timer) stop() time.Duration { return time.Since(t.startedAt) }

// hotTimed wraps work in a timer the way harness.Runner wraps each job:
// no diagnostics — the whole point of the value-type design.
//
//vbi:hotpath
func hotTimed(xs []int) (int, time.Duration) {
	tm := startTimer(time.Time{})
	total := 0
	for _, x := range xs {
		total += x
	}
	return total, tm.stop()
}

// hotTimerEscape is the rejected variant: a per-job *timer escapes and
// costs an allocation per measurement.
//
//vbi:hotpath
func hotTimerEscape() *timer {
	return &timer{startedAt: time.Now()} // want `hot path hotTimerEscape: &composite-literal escapes to the heap`
}

// hotTimerClosure is the other rejected variant: deferring the stop via
// a closure allocates on every call.
//
//vbi:hotpath
func hotTimerClosure(xs []int) int {
	tm := startTimer(time.Time{})
	defer func() { // want `hot path hotTimerClosure: function literal allocates a closure per call`
		_ = tm.stop()
	}()
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// The shapes below mirror the per-reference probe paths in internal/cache
// and internal/tlb after the map-free rewrite. The fixture module cannot
// import vbi packages, so the contract is pinned here in miniature.

type way struct {
	tag   uint64
	used  uint64
	valid bool
}

type probeCache struct {
	lines []way
	ways  int
	tick  uint64
}

// hotProbe is the direct set-indexed way scan every cache/TLB probe now
// compiles down to: index arithmetic, a bounded flat-array walk, in-place
// field updates. Nothing to flag.
//
//vbi:hotpath
func (c *probeCache) hotProbe(line uint64, set int) int {
	base := set * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == line {
			c.tick++
			c.lines[i].used = c.tick
			return i
		}
	}
	return -1
}

// hotScratchAppend is the scratch-buffer contract (Hierarchy.wb,
// NestedTable.walkBuf): appending into a caller-owned buffer that retains its
// capacity across calls is fine, but the analyzer cannot prove that, so
// the site carries an explicit justification.
//
//vbi:hotpath
func hotScratchAppend(scratch []uint64, victims ...uint64) []uint64 {
	for _, v := range victims {
		//vbi:allow hotalloc fixture: caller-owned scratch buffer, capacity retained across calls
		scratch = append(scratch, v)
	}
	return scratch
}

// hotFreshSlice is the rejected variant of the same probe: building a
// fresh result slice on every reference.
//
//vbi:hotpath
func hotFreshSlice(c *probeCache, set int) []uint64 {
	out := make([]uint64, 0, c.ways) // want `hot path hotFreshSlice: make allocates`
	base := set * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].valid {
			out = append(out, c.lines[i].tag) // want `hot path hotFreshSlice: append may grow and reallocate`
		}
	}
	return out
}

// hotMapProbe is the other rejected shape this PR removed: a per-probe
// map side-index. Map reads are not allocations, so the analyzer stays
// silent on the lookup itself — but the miss-path insert pattern the old
// code used needed a map literal per rebuild, which is flagged.
//
//vbi:hotpath
func hotMapProbe(idx map[uint64]int, line uint64) map[uint64]int {
	if _, ok := idx[line]; ok {
		return idx
	}
	if idx == nil {
		idx = make(map[uint64]int) // want `hot path hotMapProbe: make allocates`
	}
	idx[line] = 0
	return idx
}
