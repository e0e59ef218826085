// Command vbisim runs one simulated system on one workload and reports
// IPC, DRAM traffic and the system-specific event counters. The -system
// flag resolves registered system specs (built-in kinds and declaratively
// registered variants), and -param overlays individual Table 1 knobs.
// The run is one harness.Job on a one-worker harness.Runner, so it builds
// and steps its machine exactly as a sweep would.
//
// Usage:
//
//	vbisim -system VBI-Full -workload mcf -refs 1000000
//	vbisim -system Native -param l2_tlb_entries=128 -workload mcf
//	vbisim -list
//	vbisim -hetero PCM-DRAM -policy VBI -workload sphinx3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"vbi/internal/dist"
	"vbi/internal/harness"
	"vbi/internal/system"
	"vbi/internal/workloads"
)

func main() {
	params := harness.ParamAxes{}
	var (
		sysName  = flag.String("system", "Native", "system spec to simulate (see -list)")
		workload = flag.String("workload", "mcf", "benchmark name (see -list)")
		refs     = flag.Int("refs", 400_000, "measured memory references")
		seed     = flag.Uint64("seed", 1, "trace seed")
		list     = flag.Bool("list", false, "list systems, workloads and parameters")
		hetero   = flag.String("hetero", "", "heterogeneous memory: PCM-DRAM or TL-DRAM")
		policy   = flag.String("policy", "VBI", "placement policy: Unaware, VBI or IDEAL")
		version  = flag.Bool("version", false, "print protocol and harness versions, then exit")
	)
	flag.Var(params, "param", "parameter override name=value (repeatable; see -list)")
	flag.Parse()
	if *version {
		fmt.Println(dist.VersionLine("vbisim"))
		return
	}

	if *list {
		harness.WriteSpecList(os.Stdout)
		fmt.Println("workloads:")
		for _, n := range workloads.Names() {
			p := workloads.MustGet(n)
			fmt.Printf("  %-14s %4d MB, %d structures\n", n, p.Footprint()>>20, len(p.Structs))
		}
		harness.WriteHeteroList(os.Stdout)
		harness.WriteParamList(os.Stdout)
		return
	}

	overlay, err := params.Overlay()
	if err != nil {
		fatal(err)
	}
	job := harness.Job{Workloads: []string{*workload}, Refs: *refs, Seed: *seed, Params: overlay}
	systemSet := false
	flag.Visit(func(f *flag.Flag) { systemSet = systemSet || f.Name == "system" })
	if *hetero != "" {
		// Heterogeneous runs are always VBI-2 over two zones; an explicit
		// -system still reaches the job, whose Validate rejects it.
		job.HeteroMem, job.Policy = *hetero, *policy
	}
	if *hetero == "" || systemSet {
		spec, err := system.ResolveSpec(*sysName)
		if err != nil {
			fatal(err)
		}
		job.Spec = &spec
	}
	results, err := (&harness.Runner{Workers: 1}).Run(context.Background(), []harness.Job{job})
	if err != nil {
		fatal(err)
	}
	res := results[0].Results[0]

	fmt.Printf("system:    %s\n", res.System)
	fmt.Printf("workload:  %s\n", res.Workload)
	fmt.Printf("refs:      %d\n", res.MemRefs)
	fmt.Printf("instrs:    %d\n", res.Instrs)
	fmt.Printf("cycles:    %d\n", res.Cycles)
	fmt.Printf("IPC:       %.4f\n", res.IPC)
	fmt.Printf("DRAM:      %d accesses\n", res.DRAMAccesses)
	if len(res.Extra) > 0 {
		fmt.Println("counters:")
		fmt.Print(res.Extra.Render())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vbisim:", err)
	os.Exit(1)
}
