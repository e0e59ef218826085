package system

import (
	"fmt"

	"vbi/internal/cache"
	"vbi/internal/core"
	"vbi/internal/dram"
	"vbi/internal/osmodel"
	"vbi/internal/trace"
)

// New builds a single-core machine for the configuration.
func New(cfg Config, prof trace.Profile) (*Machine, error) {
	return build(cfg, []trace.Profile{prof})
}

// NewMulticore builds a machine with one core per profile over a shared
// LLC, shared main memory, and a shared OS/hypervisor/MTL (§7.2.3).
func NewMulticore(cfg Config, profs []trace.Profile) (*Multicore, error) {
	cfg = cfg.withDefaults()
	if cfg.Capacity == 16<<30 {
		cfg.Capacity = 32 << 30 // four residents need more physical memory
	}
	m, err := build(cfg, profs)
	if err != nil {
		return nil, err
	}
	return (*Multicore)(m), nil
}

// build builds a machine with one core per profile. Core 0 builds the
// cache hierarchy; each later core shares its LLC.
func build(cfg Config, profs []trace.Profile) (*Machine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	mem := dram.NewUniform(cfg.Capacity)
	llc := cache.New("LLC", cfg.Params.LLCSize, cfg.Params.LLCWays)
	ss := &sharedState{}
	m := &Machine{cfg: cfg, steps: make([]int, len(profs))}
	var hier *cache.Hierarchy
	for i, prof := range profs {
		// Distinct seeds decorrelate the streams of duplicate benchmarks
		// within a bundle.
		coreCfg := cfg
		coreCfg.Seed = cfg.Seed + uint64(i)*7919
		r, err := newRunner(prof, coreCfg, mem, llc, hier, ss)
		if err != nil {
			return nil, fmt.Errorf("core %d (%s): %w", i, prof.Name, err)
		}
		hier = r.hier
		m.runners = append(m.runners, r)
	}
	return m, nil
}

// sharedState holds the singletons a machine's cores share, each built
// by the first core that needs it: the OS or hypervisor of the
// conventional kinds, and the MTL-backed system and OS of the VBI kinds.
type sharedState struct {
	os     *osmodel.ConvOS
	vmHost *osmodel.VMHost
	sys    *core.System
	vbios  *osmodel.VBIOS
}

// newRunner builds one core of cfg.Kind over mem and llc (or sharedHier's
// LLC) and sets up its translation stage over the singletons in ss.
func newRunner(prof trace.Profile, cfg Config, mem *dram.Memory, llc *cache.Cache, sharedHier *cache.Hierarchy, ss *sharedState) (*runner, error) {
	r := newCore(cfg.Kind, prof, cfg.Seed, cfg.Params, mem, llc, sharedHier)
	var err error
	switch cfg.Kind {
	case Native, Native2M, Virtual, Virtual2M, PerfectTLB, VIVT:
		err = r.initConv(cfg, ss)
	case EnigmaHW2M:
		err = r.initEnigma(cfg.Capacity)
	case VBI1, VBI2, VBIFull:
		err = r.initVBI(cfg, ss)
	default:
		return nil, fmt.Errorf("system: unknown kind %v", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}
