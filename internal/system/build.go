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
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	mem := dram.NewUniform(cfg.Capacity)
	llc := cache.New("LLC", cfg.Params.LLCSize, cfg.Params.LLCWays)
	runner, err := newRunner(cfg.Kind, prof, cfg, mem, llc, nil, &sharedState{})
	if err != nil {
		return nil, err
	}
	return &Machine{
		name:   fmt.Sprintf("%s/%s", cfg.Kind, prof.Name),
		cfg:    cfg,
		runner: runner,
	}, nil
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

// newRunner builds one core of kind over mem and llc (or sharedHier's LLC)
// and sets up its translation stage over the singletons in ss.
func newRunner(kind Kind, prof trace.Profile, cfg Config, mem *dram.Memory, llc *cache.Cache, sharedHier *cache.Hierarchy, ss *sharedState) (*runner, error) {
	r := newCore(kind, prof, cfg.Seed, cfg.Params, mem, llc, sharedHier)
	var err error
	switch kind {
	case Native, Native2M, Virtual, Virtual2M, PerfectTLB, VIVT:
		err = r.initConv(cfg, ss)
	case EnigmaHW2M:
		err = r.initEnigma(cfg.Capacity)
	case VBI1, VBI2, VBIFull:
		err = r.initVBI(cfg, ss)
	default:
		return nil, fmt.Errorf("system: unknown kind %v", kind)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}
