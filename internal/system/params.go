package system

import (
	"fmt"
	"sort"
	"strings"
)

// Params is the typed overlay of the tunable hardware/OS knobs that Table 1
// fixes for the paper's evaluation. The zero value of every field means
// "Table 1 default", so a zero Params reproduces the paper's configuration
// exactly; any non-zero field overrides just that knob. Params is plain
// data: it marshals to canonical JSON (zero fields omitted), which is what
// the harness result cache hashes.
type Params struct {
	// Caches (bytes / ways).
	L1Size  int `json:"l1_size,omitempty"`
	L1Ways  int `json:"l1_ways,omitempty"`
	L2Size  int `json:"l2_size,omitempty"`
	L2Ways  int `json:"l2_ways,omitempty"`
	LLCSize int `json:"llc_size,omitempty"`
	LLCWays int `json:"llc_ways,omitempty"`

	// TLBs and walk caches.
	L1TLB4KEntries int `json:"l1_tlb_4k_entries,omitempty"`
	L1TLB2MEntries int `json:"l1_tlb_2m_entries,omitempty"`
	L2TLBEntries   int `json:"l2_tlb_entries,omitempty"`
	L2TLBWays      int `json:"l2_tlb_ways,omitempty"`
	L2TLBLatency   int `json:"l2_tlb_latency,omitempty"`
	PWCEntries     int `json:"pwc_entries,omitempty"`

	// OS fault costs (cycles).
	MinorFaultCost int `json:"minor_fault_cost,omitempty"`
	GuestFaultCost int `json:"guest_fault_cost,omitempty"`
	HostFaultCost  int `json:"host_fault_cost,omitempty"`
	SwapFaultCost  int `json:"swap_fault_cost,omitempty"`

	// Memory-controller work (cycles).
	MCAllocCost  int `json:"mc_alloc_cost,omitempty"`
	MTLLookupMin int `json:"mtl_lookup_min,omitempty"`
	CTCLookupLat int `json:"ctc_lookup_lat,omitempty"`
	MTLCacheLat  int `json:"mtl_cache_lat,omitempty"`

	// Heterogeneous-memory policy (§7.3).
	HeteroEpochRefs int `json:"hetero_epoch_refs,omitempty"`
	// MigAmortize scales the charged migration interference to the
	// simulated run length: the paper's 1B-instruction windows amortize
	// one-time migrations over ~100x more references than our runs, so
	// charging full bandwidth into the short window would double-count.
	MigAmortize int `json:"mig_amortize,omitempty"`
}

// paramField maps a sweepable parameter name to its Params field. The
// table is the single source of truth for name resolution (CLI -param
// flags, grid axes, -list output).
type paramField struct {
	name string
	doc  string
	get  func(*Params) *int
}

var paramFields = []paramField{
	{"l1_size", "L1 cache size in bytes", func(p *Params) *int { return &p.L1Size }},
	{"l1_ways", "L1 cache associativity", func(p *Params) *int { return &p.L1Ways }},
	{"l2_size", "L2 cache size in bytes", func(p *Params) *int { return &p.L2Size }},
	{"l2_ways", "L2 cache associativity", func(p *Params) *int { return &p.L2Ways }},
	{"llc_size", "LLC size in bytes", func(p *Params) *int { return &p.LLCSize }},
	{"llc_ways", "LLC associativity", func(p *Params) *int { return &p.LLCWays }},
	{"l1_tlb_4k_entries", "L1 TLB entries (4 KB pages, fully associative)", func(p *Params) *int { return &p.L1TLB4KEntries }},
	{"l1_tlb_2m_entries", "L1 TLB entries (2 MB pages, fully associative)", func(p *Params) *int { return &p.L1TLB2MEntries }},
	{"l2_tlb_entries", "L2 TLB entries", func(p *Params) *int { return &p.L2TLBEntries }},
	{"l2_tlb_ways", "L2 TLB associativity", func(p *Params) *int { return &p.L2TLBWays }},
	{"l2_tlb_latency", "L2 TLB probe latency (cycles)", func(p *Params) *int { return &p.L2TLBLatency }},
	{"pwc_entries", "page-walk-cache / MTL walk-cache entries", func(p *Params) *int { return &p.PWCEntries }},
	{"minor_fault_cost", "demand-paging fault cost (cycles)", func(p *Params) *int { return &p.MinorFaultCost }},
	{"guest_fault_cost", "guest-side VM fault cost (cycles)", func(p *Params) *int { return &p.GuestFaultCost }},
	{"host_fault_cost", "hypervisor (EPT fill) fault cost (cycles)", func(p *Params) *int { return &p.HostFaultCost }},
	{"swap_fault_cost", "MTL-to-OS swap/file fault cost (cycles)", func(p *Params) *int { return &p.SwapFaultCost }},
	{"mc_alloc_cost", "MTL/Enigma hardware region-allocation cost (cycles)", func(p *Params) *int { return &p.MCAllocCost }},
	{"mtl_lookup_min", "MTL pipeline minimum latency (cycles)", func(p *Params) *int { return &p.MTLLookupMin }},
	{"ctc_lookup_lat", "Enigma CTC probe latency (cycles)", func(p *Params) *int { return &p.CTCLookupLat }},
	{"mtl_cache_lat", "MTL walk-cache hit latency (cycles)", func(p *Params) *int { return &p.MTLCacheLat }},
	{"hetero_epoch_refs", "migration-policy epoch length (references, §7.3)", func(p *Params) *int { return &p.HeteroEpochRefs }},
	{"mig_amortize", "migration-bandwidth amortization divisor (§7.3)", func(p *Params) *int { return &p.MigAmortize }},
}

// DefaultParams returns the Table 1 configuration with every field filled
// in explicitly. It is what a zero Params resolves to.
func DefaultParams() Params {
	return Params{
		L1Size: L1Size, L1Ways: L1Ways,
		L2Size: L2Size, L2Ways: L2Ways,
		LLCSize: LLCSize, LLCWays: LLCWays,
		L1TLB4KEntries: L1TLB4KEntries, L1TLB2MEntries: L1TLB2MEntries,
		L2TLBEntries: L2TLBEntries, L2TLBWays: L2TLBWays,
		L2TLBLatency: L2TLBLatency, PWCEntries: PWCEntries,
		MinorFaultCost: MinorFaultCost, GuestFaultCost: GuestFaultCost,
		HostFaultCost: HostFaultCost, SwapFaultCost: SwapFaultCost,
		MCAllocCost: MCAllocCost, MTLLookupMin: MTLLookupMin,
		CTCLookupLat: CTCLookupLat, MTLCacheLat: MTLCacheLat,
		HeteroEpochRefs: 25_000, MigAmortize: 16,
	}
}

// withDefaults fills every zero field from Table 1.
func (p Params) withDefaults() Params {
	return Overlay(DefaultParams(), p)
}

// Overlay returns base with every non-zero field of over applied on top.
// It is how a job-level parameter overlay composes with a registered
// spec's parameters (the job wins).
func Overlay(base, over Params) Params {
	out := base
	for _, f := range paramFields {
		if v := *f.get(&over); v != 0 {
			*f.get(&out) = v
		}
	}
	return out
}

// IsZero reports whether no field is overridden.
func (p Params) IsZero() bool { return p == Params{} }

// ParamNames lists every sweepable parameter name, in declaration order.
func ParamNames() []string {
	out := make([]string, len(paramFields))
	for i, f := range paramFields {
		out[i] = f.name
	}
	return out
}

// ParamDoc returns the one-line description of a parameter, or "".
func ParamDoc(name string) string {
	for _, f := range paramFields {
		if f.name == name {
			return f.doc
		}
	}
	return ""
}

// Set assigns a parameter by name (as spelled in ParamNames).
func (p *Params) Set(name string, value int) error {
	for _, f := range paramFields {
		if strings.EqualFold(f.name, name) {
			*f.get(p) = value
			return nil
		}
	}
	return fmt.Errorf("system: unknown parameter %q (see ParamNames)", name)
}

// Get reads a parameter by name; zero means "default".
func (p Params) Get(name string) (int, error) {
	for _, f := range paramFields {
		if strings.EqualFold(f.name, name) {
			return *f.get(&p), nil
		}
	}
	return 0, fmt.Errorf("system: unknown parameter %q (see ParamNames)", name)
}

// Validate rejects overlays the simulators cannot honour (the cache and
// TLB constructors treat bad geometry as a panic-worthy configuration
// error; this surfaces it as a job-validation error instead).
func (p Params) Validate() error {
	for _, f := range paramFields {
		if v := *f.get(&p); v < 0 {
			return fmt.Errorf("system: parameter %s = %d is negative", f.name, v)
		}
	}
	r := p.withDefaults()
	if r.L2TLBEntries%r.L2TLBWays != 0 {
		return fmt.Errorf("system: l2_tlb_entries (%d) not divisible by l2_tlb_ways (%d)",
			r.L2TLBEntries, r.L2TLBWays)
	}
	if sets := r.L2TLBEntries / r.L2TLBWays; sets&(sets-1) != 0 {
		return fmt.Errorf("system: L2 TLB set count %d (l2_tlb_entries/l2_tlb_ways) not a power of two", sets)
	}
	for _, c := range []struct {
		name       string
		size, ways int
	}{
		{"l1", r.L1Size, r.L1Ways},
		{"l2", r.L2Size, r.L2Ways},
		{"llc", r.LLCSize, r.LLCWays},
	} {
		if c.size%(c.ways*64) != 0 {
			return fmt.Errorf("system: %s_size (%d) not a multiple of %s_ways x 64 B lines",
				c.name, c.size, c.name)
		}
		if sets := c.size / (c.ways * 64); sets&(sets-1) != 0 {
			return fmt.Errorf("system: %s set count %d not a power of two", c.name, sets)
		}
	}
	return nil
}

// String renders the non-zero overrides as "name=value,...", sorted by
// name, or "" for a zero overlay. Job labels and spec listings use it.
func (p Params) String() string {
	var parts []string
	for _, f := range paramFields {
		if v := *f.get(&p); v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", f.name, v))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
