package system

import (
	"fmt"

	"vbi/internal/cache"
	"vbi/internal/dram"
	"vbi/internal/trace"
)

// Multicore is a quad-core machine running one workload per core over a
// shared LLC, shared main memory, and a shared OS/hypervisor/MTL (§7.2.3).
type Multicore struct {
	cfg     Config
	runners []*runner
	names   []string
}

// NewMulticore builds a machine with one core per profile.
func NewMulticore(cfg Config, profs []trace.Profile) (*Multicore, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Capacity == 16<<30 {
		cfg.Capacity = 32 << 30 // four residents need more physical memory
	}
	mem := dram.NewUniform(cfg.Capacity)
	llc := cache.New("LLC", cfg.Params.LLCSize, cfg.Params.LLCWays)
	ss := &sharedState{}

	m := &Multicore{cfg: cfg}
	// Core 0 builds the hierarchy; each later core shares its LLC.
	var hier *cache.Hierarchy
	for i, prof := range profs {
		// Distinct seeds decorrelate the streams of duplicate benchmarks
		// within a bundle.
		coreCfg := cfg
		coreCfg.Seed = cfg.Seed + uint64(i)*7919
		r, err := newRunner(cfg.Kind, prof, coreCfg, mem, llc, hier, ss)
		if err != nil {
			return nil, fmt.Errorf("core %d (%s): %w", i, prof.Name, err)
		}
		hier = r.hier
		m.runners = append(m.runners, r)
		m.names = append(m.names, prof.Name)
	}
	return m, nil
}

// Run interleaves the cores in time order (the core with the smallest
// local clock steps next, so shared-bank and shared-LLC contention is
// simulated causally) until every core has retired warmup+measured
// references.
func (m *Multicore) Run() ([]RunResult, error) {
	n := len(m.runners)
	steps := make([]int, n)
	target := m.cfg.Warmup + m.cfg.Refs
	done := 0
	for done < n {
		// Pick the unfinished core with the smallest clock.
		best := -1
		var bestNow uint64
		for i, r := range m.runners {
			if steps[i] >= target {
				continue
			}
			if now := r.cpu.Now(); best == -1 || now < bestNow {
				best, bestNow = i, now
			}
		}
		r := m.runners[best]
		if err := r.step(); err != nil {
			return nil, fmt.Errorf("core %d (%s): %w", best, m.names[best], err)
		}
		steps[best]++
		if steps[best] == m.cfg.Warmup {
			r.beginMeasurement()
		}
		if steps[best] == target {
			done++
		}
	}
	out := make([]RunResult, n)
	for i, r := range m.runners {
		out[i] = r.result()
	}
	return out, nil
}
