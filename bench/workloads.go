// Package bench is the repository's host-throughput benchmark. It times
// the simulator from outside, through the public constructors and Run
// methods of internal/system, over four fixed matrices of runs chosen to
// stress different simulator layers. cmd/vbiperf is its command line;
// README.md says what each workload and metric is for.
package bench

import (
	"fmt"
	"strings"

	"vbi/internal/system"
	"vbi/internal/trace"
	"vbi/internal/workloads"
)

// A Workload is one fixed matrix of simulator runs.
type Workload struct {
	Name string
	// Why records what the workload stresses and which optimisations it
	// exercises or bypasses.
	Why string
	// Refs is the measured reference count of each run (per core for
	// quad-core bundles). Warm-up is Refs/2, so the modelled caches start
	// warmed, as in the paper's figures.
	Refs int
	jobs func(refs int, seed uint64) ([]job, error)
}

// A job is one run of a workload's matrix: a constructor call (setup)
// followed by a Run call (step).
type job struct {
	// name identifies the run within the matrix, e.g. "Native/mcf".
	name string
	// kind is the metric slug of the system kind ("native", "vbi-full");
	// empty for heterogeneous-memory runs, which report policy instead.
	kind   string
	policy string
	app    string
	// stepped counts the references Run steps: warm-up plus measured, on
	// every core.
	stepped uint64
	// setup builds the machine and returns its Run.
	setup func() (func() ([]system.RunResult, error), error)
}

// Workloads lists the benchmark's workloads in reporting order.
var Workloads = []Workload{
	{
		Name: "translation-bound",
		Why:  "multi-GB footprints with sparse hot sets far beyond TLB reach, so page walks, TLBs and the MTL dominate step time",
		Refs: 100_000,
		jobs: singleCore("mcf", "graph500", "omnetpp-17"),
	},
	{
		Name: "cache-resident",
		Why:  "hot sets inside TLB reach and L2/LLC, so the cache hierarchy dominates and translation is nearly idle",
		Refs: 200_000,
		jobs: singleCore("namd", "hmmer", "bzip2", "sjeng"),
	},
	{
		Name: "hetero-migration",
		Why:  "PCM-DRAM and TL-DRAM placement, where epoch migration and RangeTLB invalidation sit beside MTL translation",
		Refs: 150_000,
		jobs: hetero("mcf", "milc", "lbm-17", "GemsFDTD"),
	},
	{
		Name: "quad-bundles",
		Why:  "four cores sharing LLC, DRAM and OS/MTL through the multicore interleave, with four residents to prefill",
		Refs: 50_000,
		jobs: bundles("wl1", "wl3"),
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// slug is the metric-name form of a system kind or policy name:
// lowercased, spaces as dashes.
func slug(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, " ", "-"))
}

// profiles resolves application names.
func profiles(apps []string) ([]trace.Profile, error) {
	out := make([]trace.Profile, len(apps))
	for i, a := range apps {
		p, err := workloads.Get(a)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// oneCore adapts a single-core Run to the multi-core result shape.
func oneCore(run func() (system.RunResult, error)) func() ([]system.RunResult, error) {
	return func() ([]system.RunResult, error) {
		r, err := run()
		return []system.RunResult{r}, err
	}
}

// singleCore is every system kind on each application.
func singleCore(apps ...string) func(int, uint64) ([]job, error) {
	return func(refs int, seed uint64) ([]job, error) {
		profs, err := profiles(apps)
		if err != nil {
			return nil, err
		}
		var out []job
		for _, prof := range profs {
			for _, kind := range system.Kinds() {
				cfg := system.Config{Kind: kind, Refs: refs, Warmup: refs / 2, Seed: seed}
				out = append(out, job{
					name: kind.String() + "/" + prof.Name, kind: slug(kind.String()), app: prof.Name, stepped: uint64(refs + refs/2),
					setup: func() (func() ([]system.RunResult, error), error) {
						m, err := system.New(cfg, prof)
						if err != nil {
							return nil, err
						}
						return oneCore(m.Run), nil
					},
				})
			}
		}
		return out, nil
	}
}

// hetero is both heterogeneous memories under the hotness-unaware
// control and the VBI migration policy, on each application.
func hetero(apps ...string) func(int, uint64) ([]job, error) {
	return func(refs int, seed uint64) ([]job, error) {
		profs, err := profiles(apps)
		if err != nil {
			return nil, err
		}
		var out []job
		for _, prof := range profs {
			for _, mem := range []system.HeteroMem{system.HeteroPCMDRAM, system.HeteroTLDRAM} {
				for _, pol := range []system.Policy{system.PolicyUnaware, system.PolicyVBI} {
					cfg := system.HeteroConfig{Mem: mem, Policy: pol, Refs: refs, Warmup: refs / 2, Seed: seed}
					out = append(out, job{
						name: fmt.Sprintf("%s %s/%s", pol, mem, prof.Name), policy: slug(pol.String()), app: prof.Name, stepped: uint64(refs + refs/2),
						setup: func() (func() ([]system.RunResult, error), error) {
							h, err := system.NewHetero(cfg, prof)
							if err != nil {
								return nil, err
							}
							return oneCore(h.Run), nil
						},
					})
				}
			}
		}
		return out, nil
	}
}

// bundles is every Figure 8 system kind on each Table 2 bundle.
func bundles(names ...string) func(int, uint64) ([]job, error) {
	return func(refs int, seed uint64) ([]job, error) {
		var out []job
		for _, b := range names {
			profs, err := profiles(workloads.Bundles[b])
			if err != nil {
				return nil, err
			}
			for _, kind := range system.KindsMulticore {
				cfg := system.Config{Kind: kind, Refs: refs, Warmup: refs / 2, Seed: seed}
				out = append(out, job{
					name: kind.String() + "/" + b, kind: slug(kind.String()), app: b, stepped: uint64(len(profs) * (refs + refs/2)),
					setup: func() (func() ([]system.RunResult, error), error) {
						m, err := system.NewMulticore(cfg, profs)
						if err != nil {
							return nil, err
						}
						return m.Run, nil
					},
				})
			}
		}
		return out, nil
	}
}
