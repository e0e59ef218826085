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
	"io"
	"os"

	"vbi/internal/dist"
	"vbi/internal/harness"
	"vbi/internal/system"
	"vbi/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vbisim:", err)
		os.Exit(1)
	}
}

// run parses args, runs the job they describe and writes its report to
// stdout. A malformed flag exits 2, as flag.Parse would.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vbisim", flag.ExitOnError)
	params := harness.ParamAxes{}
	var (
		sysName  = fs.String("system", "Native", "system spec to simulate (see -list)")
		workload = fs.String("workload", "mcf", "benchmark name (see -list)")
		refs     = fs.Int("refs", 400_000, "measured memory references")
		seed     = fs.Uint64("seed", 1, "trace seed")
		list     = fs.Bool("list", false, "list systems, workloads and parameters")
		hetero   = fs.String("hetero", "", "heterogeneous memory: PCM-DRAM or TL-DRAM")
		policy   = fs.String("policy", "VBI", "placement policy: Unaware, VBI or IDEAL")
		version  = fs.Bool("version", false, "print protocol and harness versions, then exit")
	)
	fs.Var(params, "param", "parameter override name=value (repeatable; see -list)")
	fs.Parse(args)
	if *version {
		fmt.Fprintln(stdout, dist.VersionLine("vbisim"))
		return nil
	}

	if *list {
		harness.WriteSpecList(stdout)
		fmt.Fprintln(stdout, "workloads:")
		for _, n := range workloads.Names() {
			p := workloads.MustGet(n)
			fmt.Fprintf(stdout, "  %-14s %4d MB, %d structures\n", n, p.Footprint()>>20, len(p.Structs))
		}
		harness.WriteHeteroList(stdout)
		harness.WriteParamList(stdout)
		return nil
	}

	overlay, err := params.Overlay()
	if err != nil {
		return err
	}
	job := harness.Job{Workloads: []string{*workload}, Refs: *refs, Seed: *seed, Params: overlay}
	systemSet := false
	fs.Visit(func(f *flag.Flag) { systemSet = systemSet || f.Name == "system" })
	if *hetero != "" {
		// Heterogeneous runs are always VBI-2 over two zones; an explicit
		// -system still reaches the job, whose Validate rejects it.
		job.HeteroMem, job.Policy = *hetero, *policy
	}
	if *hetero == "" || systemSet {
		spec, err := system.ResolveSpec(*sysName)
		if err != nil {
			return err
		}
		job.Spec = &spec
	}
	results, err := (&harness.Runner{Workers: 1}).Run(context.Background(), []harness.Job{job})
	if err != nil {
		return err
	}
	res := results[0].Results[0]

	fmt.Fprintf(stdout, "system:    %s\n", res.System)
	fmt.Fprintf(stdout, "workload:  %s\n", res.Workload)
	fmt.Fprintf(stdout, "refs:      %d\n", res.MemRefs)
	fmt.Fprintf(stdout, "instrs:    %d\n", res.Instrs)
	fmt.Fprintf(stdout, "cycles:    %d\n", res.Cycles)
	fmt.Fprintf(stdout, "IPC:       %.4f\n", res.IPC)
	fmt.Fprintf(stdout, "DRAM:      %d accesses\n", res.DRAMAccesses)
	if len(res.Extra) > 0 {
		fmt.Fprintln(stdout, "counters:")
		fmt.Fprint(stdout, res.Extra.Render())
	}
	return nil
}
