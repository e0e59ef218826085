// Package trace generates the deterministic synthetic memory-reference
// streams that stand in for the paper's Pin traces of SPEC CPU 2006/2017,
// TailBench and Graph 500 (see the substitution table in DESIGN.md).
//
// A workload is a set of data structures, each with a size, an access
// pattern (sequential, strided, random, pointer-chase), an access-share
// weight, a hot-subset skew, a write fraction and a cold fraction (the
// tail of the structure that is read but never written — zero-initialized
// or over-allocated memory, which the delayed-allocation optimization of
// §5.1 turns into zero lines). The generator is seeded per workload, so
// every system simulates the identical reference stream.
package trace

import (
	"vbi/internal/cpu"
)

// Pattern selects how offsets walk a structure.
type Pattern uint8

const (
	// Seq walks lines in address order (streaming).
	Seq Pattern = iota
	// Strided walks with a fixed stride (column sweeps, grids).
	Strided
	// Rand draws uniform offsets (hash tables, graph frontiers).
	Rand
	// Chase draws uniform offsets with load-to-load dependence (linked
	// structures: each access needs the previous one's value).
	Chase
)

// Struct describes one data structure of a workload.
type Struct struct {
	Name string
	// Size in bytes (determines the VB size class under VBI).
	Size uint64
	// Pattern of accesses within the structure.
	Pattern Pattern
	// Stride in bytes for Strided (ignored otherwise).
	Stride uint64
	// Weight is the structure's share of references (relative).
	Weight float64
	// WriteFrac is the store fraction of its references.
	WriteFrac float64
	// HotFrac is the fraction of the structure that is hot; HotBias is the
	// probability a random access lands in the hot subset. Zero values
	// mean uniform.
	HotFrac float64
	HotBias float64
	// SparseHot spreads the hot subset as one line per 4 KB page instead
	// of a dense prefix: the cache footprint stays small while the TLB
	// footprint spans HotFrac of the structure's pages (pointer-chasing
	// workloads like mcf exhibit exactly this cache-friendly,
	// TLB-hostile shape).
	SparseHot bool
	// ColdFrac is the tail fraction of the structure that is never
	// written: reads there return zero/never-initialized data. Writes are
	// confined to the first (1-ColdFrac) of the structure.
	ColdFrac float64
	// Code marks an instruction-like structure (read-only, executable).
	Code bool
}

// Profile describes one benchmark workload.
type Profile struct {
	Name string
	// MemRefsPer1000 is memory references per 1000 instructions; it sets
	// the gap between trace ops.
	MemRefsPer1000 int
	// Structs are the workload's data structures.
	Structs []Struct
}

// Footprint returns the total data size.
func (p Profile) Footprint() uint64 {
	var n uint64
	for _, s := range p.Structs {
		n += s.Size
	}
	return n
}

// WarmBytes returns the initialized prefix of the structure: everything
// except the cold tail. Machines pre-touch/pre-allocate it before the
// simulated region starts, the way real workloads initialize their data
// during startup.
func (s Struct) WarmBytes() uint64 {
	warm := uint64(float64(s.Size) * (1 - s.ColdFrac))
	if warm > s.Size {
		warm = s.Size
	}
	return warm
}

// Ref is one generated reference: the structure it targets plus the op.
type Ref struct {
	StructIdx int
	Offset    uint64
	Op        cpu.Op // Addr is left 0; the system layer resolves it
}

// Generator produces the deterministic reference stream of a profile.
type Generator struct {
	p       Profile
	rng     splitMix
	cum     []float64 // cumulative weights
	cursors []uint64  // per-struct sequential/strided cursors
	gapAvg  uint32
}

// NewGenerator seeds a generator. The same (profile, seed) pair always
// yields the same stream.
func NewGenerator(p Profile, seed uint64) *Generator {
	g := &Generator{
		p:       p,
		rng:     splitMix{state: seed ^ hashName(p.Name)},
		cursors: make([]uint64, len(p.Structs)),
	}
	var total float64
	for _, s := range p.Structs {
		total += s.Weight
	}
	acc := 0.0
	for _, s := range p.Structs {
		acc += s.Weight / total
		g.cum = append(g.cum, acc)
	}
	refsPerK := p.MemRefsPer1000
	if refsPerK <= 0 {
		refsPerK = 250
	}
	g.gapAvg = uint32((1000+refsPerK/2)/refsPerK) - 1
	return g
}

// Next produces the next reference.
func (g *Generator) Next() Ref {
	// Pick the structure by weight.
	x := g.rng.float64()
	idx := len(g.cum) - 1
	for i, c := range g.cum {
		if x < c {
			idx = i
			break
		}
	}
	s := &g.p.Structs[idx]

	lines := s.Size >> 6
	var line uint64
	dep := false
	switch s.Pattern {
	case Seq:
		line = g.cursors[idx] % lines
		g.cursors[idx]++
	case Strided:
		stride := s.Stride >> 6
		if stride == 0 {
			stride = 1
		}
		line = (g.cursors[idx] * stride) % lines
		g.cursors[idx]++
	case Chase:
		dep = true
		fallthrough
	case Rand:
		if s.HotFrac > 0 && g.rng.float64() < s.HotBias {
			if s.SparseHot {
				const linesPerPage = 4096 / 64
				pages := lines / linesPerPage
				hotPages := uint64(float64(pages) * s.HotFrac)
				if hotPages == 0 {
					hotPages = 1
				}
				// Hot pages are sprinkled evenly across the whole
				// structure (linked nodes scattered by the allocator), so
				// they defeat both 4 KB and 2 MB TLB reach.
				stride := pages / hotPages
				if stride == 0 {
					stride = 1
				}
				line = g.rng.uint64n(hotPages) * stride * linesPerPage
			} else {
				hotLines := uint64(float64(lines) * s.HotFrac)
				if hotLines == 0 {
					hotLines = 1
				}
				line = g.rng.uint64n(hotLines)
			}
		} else {
			line = g.rng.uint64n(lines)
		}
	}

	write := g.rng.float64() < s.WriteFrac
	if write && s.ColdFrac > 0 {
		// Writes stay out of the cold tail.
		warmLines := uint64(float64(lines) * (1 - s.ColdFrac))
		if warmLines == 0 {
			warmLines = 1
		}
		if line >= warmLines {
			line %= warmLines
		}
	}

	// Gap jitter: uniform in [gapAvg/2, 3*gapAvg/2].
	gap := g.gapAvg
	if gap > 1 {
		gap = gap/2 + uint32(g.rng.uint64n(uint64(gap)))
	}
	return Ref{
		StructIdx: idx,
		Offset:    line << 6,
		Op:        cpu.Op{Gap: gap, Write: write, Dep: dep},
	}
}

// splitMix is SplitMix64: tiny, fast, deterministic.
type splitMix struct{ state uint64 }

func (s *splitMix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitMix) uint64n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return s.next() % n
}

func (s *splitMix) float64() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

func hashName(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
