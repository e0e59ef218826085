package system

import (
	"fmt"
	"sort"

	"vbi/internal/addr"
	"vbi/internal/cache"
	"vbi/internal/core"
	"vbi/internal/dram"
	"vbi/internal/mtl"
	"vbi/internal/osmodel"
	"vbi/internal/prop"
	"vbi/internal/trace"
	"vbi/internal/workloads"
)

// HeteroMem selects the heterogeneous main-memory architecture of §7.3.
type HeteroMem int

const (
	// HeteroPCMDRAM is the hybrid PCM–DRAM memory of Ramos et al. [107]:
	// a small fast DRAM zone in front of a large slow PCM zone.
	HeteroPCMDRAM HeteroMem = iota
	// HeteroTLDRAM is Tiered-Latency DRAM [74]: every bank has a fast
	// near segment and a slower far segment.
	HeteroTLDRAM
)

func (h HeteroMem) String() string {
	if h == HeteroPCMDRAM {
		return "PCM-DRAM"
	}
	return "TL-DRAM"
}

// Policy selects the data-placement policy being compared (§7.3).
type Policy int

const (
	// PolicyUnaware maps data without regard to hotness (capacity-
	// proportional striping by allocation order).
	PolicyUnaware Policy = iota
	// PolicyVBI uses VB properties for initial placement and the MTL's
	// access counters for epoch-based migration of hot VBs into the fast
	// zone — the mechanism VBI enables (§7.3).
	PolicyVBI
	// PolicyIdeal uses oracle knowledge of the full run's access counts
	// to place hot data in the fast zone from the start, with no
	// migration cost (the IDEAL bars of Figures 9 and 10).
	PolicyIdeal
)

func (p Policy) String() string {
	switch p {
	case PolicyUnaware:
		return "Hotness-Unaware"
	case PolicyVBI:
		return "VBI"
	}
	return "IDEAL"
}

// HeteroConfig parameterizes a heterogeneous-memory run.
type HeteroConfig struct {
	Mem    HeteroMem
	Policy Policy
	Refs   int
	Warmup int
	Seed   uint64
	// Params overlays the tunable hardware/OS knobs, including the
	// hetero-specific epoch length (HeteroEpochRefs, the migration-policy
	// period) and migration amortization.
	Params Params
}

// Zone geometry of the two architectures. The fast zones are scarce
// relative to the workload footprints (as in the underlying proposals: the
// TL-DRAM near segment is a small slice of every subarray, and the hybrid
// memory's DRAM is a fraction of the PCM capacity), so placement quality
// matters.
const (
	pcmDRAMFast = 256 << 20  // DRAM zone of the hybrid memory
	pcmDRAMSlow = 6 << 30    // PCM zone
	tlDRAMFast  = 128 << 20  // near segment
	tlDRAMSlow  = 3968 << 20 // far segment
	// migCap is the migration budget per epoch, scaled to the simulated
	// reference counts so the policy converges within a run; the per-line
	// cost below still charges the bandwidth.
	migCap     = 256 << 20
	migPenalty = 2    // cycles of interference per migrated line
	fastFill   = 0.90 // usable fraction of the fast zone
	// stickiness favours resident chunks during re-ranking so uniform
	// densities do not cause migration churn.
	stickiness = 1.3
)

// heteroChunkShift segments large structures into VBs of at most 16 MB,
// the granularity of placement and migration.
const heteroChunkShift = 24

// migrator is a heterogeneous-memory machine's placement state (§7.3).
type migrator struct {
	m *mtl.MTL
	// label is the run's RunResult.System, "<policy> <memory>".
	label string
	// epoch is the migration period in steps under PolicyVBI
	// (HeteroEpochRefs); 0 keeps the initial placement for the whole run.
	epoch     int
	fastBytes uint64
	// declared holds each VB's requested size, for placement budgeting.
	declared map[addr.VBUID]uint64
}

// NewHetero builds a single-core VBI-2 machine over a two-zone memory,
// placing its VBs under the configured policy.
func NewHetero(hc HeteroConfig, prof trace.Profile) (*Machine, error) {
	// Config.withDefaults fills Refs, Warmup, Seed and Params, as for
	// every other machine.
	cfg := Config{Kind: VBI2, Refs: hc.Refs, Warmup: hc.Warmup, Seed: hc.Seed, Params: hc.Params}.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	var mem *dram.Memory
	var fast, slow uint64
	var names = []string{"fast", "slow"}
	switch hc.Mem {
	case HeteroPCMDRAM:
		fast, slow = pcmDRAMFast, pcmDRAMSlow
		mem = dram.NewHybrid(fast, slow)
	default:
		fast, slow = tlDRAMFast, tlDRAMSlow
		mem = dram.NewTLDRAM(fast, fast+slow)
	}
	m := mtl.New(mtl.Config{DelayedAlloc: true}, mtl.NewZones(
		map[string]uint64{"fast": fast, "slow": slow}, names))
	sys := core.NewSystem(m)
	vbios := osmodel.NewVBIOS(sys)

	llc := cache.New("LLC", cfg.Params.LLCSize, cfg.Params.LLCWays)
	r := newCore(VBI2, prof, cfg.Seed, cfg.Params, mem, llc, nil)
	r.attachVBI(sys, vbios)
	vbs, err := r.requestVBs(heteroChunkShift)
	if err != nil {
		return nil, err
	}

	mg := &migrator{
		m:         m,
		label:     fmt.Sprintf("%s %s", hc.Policy, hc.Mem),
		fastBytes: uint64(float64(fast) * fastFill),
		declared:  make(map[addr.VBUID]uint64),
	}
	if hc.Policy == PolicyVBI {
		mg.epoch = cfg.Params.HeteroEpochRefs
	}
	type chunkRef struct {
		vb     addr.VBUID
		s      trace.Struct
		sIdx   int
		cIdx   int
		size   uint64
		weight float64 // oracle/unaware placement key
	}
	var chunks []chunkRef
	for si, s := range prof.Structs {
		for ci, u := range vbs[si] {
			size := chunkLen(s.Size, ci, heteroChunkShift)
			mg.declared[u] = size
			chunks = append(chunks, chunkRef{vb: u, s: s, sIdx: si, cIdx: ci, size: size})
		}
	}

	// Initial placement.
	switch hc.Policy {
	case PolicyUnaware:
		// Capacity-proportional striping in allocation order: the
		// allocator treats the hybrid memory as one flat pool, so data
		// lands in each zone in proportion to its size and only a small
		// fraction of the hot data happens to reach the fast zone.
		placed := []float64{0, 0}
		caps := []float64{float64(fast), float64(slow)}
		for _, c := range chunks {
			z := 0
			if (placed[0]+float64(c.size))/caps[0] > (placed[1]+float64(c.size))/caps[1] {
				z = 1
			}
			placed[z] += float64(c.size)
			if err := m.SetHomeZone(c.vb, z); err != nil {
				return nil, err
			}
		}
	case PolicyIdeal:
		counts := oracleChunkCounts(prof, cfg)
		for i := range chunks {
			chunks[i].weight = counts[[2]int{chunks[i].sIdx, chunks[i].cIdx}] / float64(chunks[i].size)
		}
		sort.SliceStable(chunks, func(i, j int) bool { return chunks[i].weight > chunks[j].weight })
		budget := mg.fastBytes
		for _, c := range chunks {
			z := 1
			if c.weight > 0 && c.size <= budget {
				z = 0
				budget -= c.size
			}
			if err := m.SetHomeZone(c.vb, z); err != nil {
				return nil, err
			}
		}
	case PolicyVBI:
		// Initial placement from the property bitvector (§2, §7.3):
		// latency-sensitive VBs take the fast zone first, then the
		// remaining budget fills in allocation order (so VBI starts no
		// worse than the hotness-unaware fill). The epoch migration loop
		// then refines placement from the MTL's counters.
		budget := mg.fastBytes
		placed := make(map[addr.VBUID]bool)
		for _, c := range chunks {
			if !workloads.PropsFor(c.s).Has(prop.LatencySensitive) {
				continue
			}
			if c.size <= budget {
				budget -= c.size
				placed[c.vb] = true
				if err := m.SetHomeZone(c.vb, 0); err != nil {
					return nil, err
				}
			}
		}
		for _, c := range chunks {
			if placed[c.vb] {
				continue
			}
			z := 1
			if c.size <= budget {
				z = 0
				budget -= c.size
			}
			if err := m.SetHomeZone(c.vb, z); err != nil {
				return nil, err
			}
		}
	}

	// Initialization pass, after placement so prefilled regions land in
	// their policy-chosen zones.
	if err := r.prefill(vbs); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, runners: []*runner{r}, steps: make([]int, 1), mig: mg}, nil
}

// oracleChunkCounts replays the reference stream (generation only — no
// timing) and counts accesses per (struct, chunk).
func oracleChunkCounts(prof trace.Profile, cfg Config) map[[2]int]float64 {
	g := trace.NewGenerator(prof, cfg.Seed)
	counts := make(map[[2]int]float64)
	total := cfg.Warmup + cfg.Refs
	for i := 0; i < total; i++ {
		ref := g.Next()
		counts[[2]int{ref.StructIdx, int(ref.Offset >> heteroChunkShift)}]++
	}
	return counts
}

// migrate re-plans the fast zone from the MTL's access counters
// (§7.3): the hottest VBs (by access density) fill the fast-zone budget;
// VBs that lost their slot are demoted first to make room. Residents get a
// stickiness bonus so uniform densities do not churn, and migration
// bandwidth is charged to core r.
func (mg *migrator) migrate(r *runner) {
	counts := mg.m.AccessCounts() // hottest first
	// Re-rank with a stickiness bonus for current residents so uniform
	// densities do not cause churn.
	type cand struct {
		c    mtl.VBCount
		rank float64
	}
	var cands []cand
	for _, c := range counts {
		if c.Bytes == 0 {
			continue
		}
		rank := float64(c.Accesses) / float64(c.Bytes)
		if c.Zone == 0 {
			rank *= stickiness
		}
		cands = append(cands, cand{c, rank})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].rank > cands[j].rank })

	// Plan the fast zone: hottest VBs (with non-zero activity) first.
	budget := mg.fastBytes
	wantFast := make(map[addr.VBUID]bool)
	for _, cd := range cands {
		if cd.c.Accesses == 0 {
			continue
		}
		size := mg.declared[cd.c.VB]
		if size <= budget {
			wantFast[cd.c.VB] = true
			budget -= size
		}
	}

	var moved uint64
	// Demotions first — coldest residents out, including idle ones — so
	// the promotions below find room.
	for i := len(cands) - 1; i >= 0 && moved < migCap; i-- {
		c := cands[i].c
		if c.Zone == 0 && !wantFast[c.VB] {
			if n, err := mg.m.MigrateVB(c.VB, 1); err == nil {
				moved += n
			}
		}
	}
	for _, cd := range cands {
		if moved >= migCap {
			break
		}
		if cd.c.Zone == 1 && wantFast[cd.c.VB] {
			if n, err := mg.m.MigrateVB(cd.c.VB, 0); err == nil {
				moved += n
			}
		}
	}
	r.pendingPenalty += (moved / 64) * migPenalty / uint64(r.p.MigAmortize)
	mg.m.ResetAccessCounts()
}
