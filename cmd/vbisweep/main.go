// Command vbisweep runs a design-space sweep through the experiment
// harness and emits the result matrix. Sweep axes are (system or
// hetero-memory/policy) × (workload or multiprogrammed bundle) × seed ×
// named parameter overlays × refs; grids come from flags or a small JSON
// config. Runs execute across a bounded worker pool, and an optional
// on-disk cache makes re-runs incremental (only changed cells simulate).
//
// Usage:
//
//	vbisweep -systems Native,VBI-Full -workloads mcf,graph500 -refs 100000
//	vbisweep -systems Native -workloads mcf -param l2_tlb_entries=128,512,2048
//	vbisweep -systems VBI-Full -workloads mcf -refs 50000,100000,200000
//	vbisweep -systems Native,VBI-Full -bundle wl1,wl2,pair=mcf+graph500 -refs 100000
//	vbisweep -hetero PCM-DRAM -policies Unaware,VBI -workloads sphinx3 -param hetero_epoch_refs=10000,25000
//	vbisweep -config grid.json -workers 8 -cache .vbicache -csv out.csv -json out.json
//	vbisweep -config grid.json -remote 10.0.0.7:9471,10.0.0.8:9471 -cache .vbicache
//	vbisweep -config grid.json -fleet :9600 -auth-token secret -cache .vbicache
//	vbisweep -daemon 10.0.0.1:9600 -submit -config grid.json -name fig6
//	vbisweep -daemon 10.0.0.1:9600 -watch sw-688f...-a1b2c3d4 -json out.json
//	vbisweep -daemon 10.0.0.1:9600 -cancel sw-688f...-a1b2c3d4
//	vbisweep -cache .vbicache -cache-stats
//	vbisweep -list
//
// -bundle adds multiprogrammed rows (one core per workload) alongside any
// -workloads rows: each entry is a predefined Table 2 bundle name ("wl1")
// or an inline definition "name=app1+app2+..." (see -list). Bundles sweep
// like any other axis — cross-producted with systems, seeds, refs and
// parameter overlays — but conflict with -hetero, whose jobs are
// single-core. A bundle cell's matrix value aggregates across cores
// (ipc: total throughput, dram: total accesses).
//
// -remote shards the expanded job batch across vbiworker daemons
// (internal/dist): results merge positionally and every completed shard
// lands in -cache, so the matrix is byte-identical to a local run and an
// interrupted sweep resumes incrementally. -fleet instead (or as well)
// listens for workers: vbiworker -join daemons register and heartbeat
// there, may join mid-sweep, and are evicted (their shards requeued) when
// their heartbeats stop. -auth-token (or $VBI_AUTH_TOKEN) authenticates
// both directions, and the -tls-cert/-tls-key/-tls-ca flags wrap every
// route in TLS (mTLS when -tls-ca is given; see DESIGN.md §6).
// -cache-stats and -cache-prune inspect and clean the cache directory
// without running anything.
//
// -daemon switches to client mode against a vbisweepd service instead of
// executing anything locally: -submit posts the grid (from -config or the
// axis flags) and prints the sweep id, -watch polls a sweep to completion
// and renders its matrix (honoring -json/-csv; the re-rendered JSON is
// byte-identical to a local run's), -cancel deletes it. The daemon owns
// the fleet, the journal and the cache; this process can disconnect any
// time without losing the sweep.
//
// -param may repeat; each occurrence adds one axis and the grid expands
// the cross product. Parameter names come from the system spec registry
// (-list shows them with their Table 1 defaults); system names resolve
// registered specs, so declaratively registered variants (e.g.
// "Native-128TLB") sweep like built-ins. A config file holds the same
// axes as the flags — plus inline variant-spec definitions ("specs") and
// a base parameter overlay ("overlay") — and cannot be combined with
// them:
//
//	{"systems": ["Native", "Native-128TLB"], "workloads": ["mcf"],
//	 "seeds": [1, 2], "refs": 100000,
//	 "bundles": [{"name": "wl1"}, {"name": "pair", "workloads": ["mcf", "graph500"]}],
//	 "specs": [{"name": "Native-128TLB", "base": "Native",
//	            "params": {"l2_tlb_entries": 128}}],
//	 "params": {"l2_tlb_entries": [256, 512]}}
//
// Expanded jobs are self-describing (they carry their resolved system
// spec), so a -config sweep defining variant specs runs unchanged on a
// -remote/-fleet worker fleet: the workers never need the definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vbi/internal/dist"
	"vbi/internal/harness"
	"vbi/internal/obs"
	"vbi/internal/stats"
	"vbi/internal/sweepd"
	"vbi/internal/workloads"
)

func main() {
	params := harness.ParamAxes{}
	tlsOpts := &dist.TLSOptions{}
	fleetOpts := &dist.FleetOptions{}
	logOpts := &obs.LogOptions{}
	var (
		daemon  = flag.String("daemon", "", "vbisweepd address; switches to client mode (-submit/-watch/-cancel)")
		submitF = flag.Bool("submit", false, "submit the grid to -daemon and print the sweep id")
		watchF  = flag.String("watch", "", "poll this sweep id on -daemon until it finishes and render its matrix")
		cancelF = flag.String("cancel", "", "cancel (or, when terminal, forget) this sweep id on -daemon")
		nameF   = flag.String("name", "", "human label attached to a -submit")
	)
	var (
		systemsF   = flag.String("systems", "", "comma-separated system/spec names (default Native,VBI-Full; see -list)")
		workloadsF = flag.String("workloads", "", "comma-separated workload names (default mcf,graph500 unless -bundle is given; see -list)")
		bundlesF   = flag.String("bundle", "", "comma-separated multiprogrammed bundles: a Table 2 name (wl1) or name=app1+app2+... (see -list)")
		seedsF     = flag.String("seeds", "", "comma-separated trace seeds (default 1)")
		refsF      = flag.String("refs", "", "measured references per run; a comma list sweeps refs as an axis (default 100000)")
		heteroF    = flag.String("hetero", "", "comma-separated heterogeneous memories (replaces -systems; see -list)")
		policiesF  = flag.String("policies", "", "comma-separated placement policies for -hetero (default all; see -list)")
		config     = flag.String("config", "", "JSON grid config (exclusive with the axis flags)")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir   = flag.String("cache", "", "result-cache directory (empty = no cache)")
		cacheStats = flag.Bool("cache-stats", false, "print entry/byte/version stats for -cache and exit")
		cachePrune = flag.Bool("cache-prune", false, "delete -cache entries from other schema versions and exit")
		metric     = flag.String("metric", harness.MetricIPC, "matrix metric: "+strings.Join(harness.Metrics(), " or "))
		jsonOut    = flag.String("json", "", "write the matrix as JSON to this file")
		csvOut     = flag.String("csv", "", "write the matrix as CSV to this file")
		list       = flag.Bool("list", false, "list systems, specs, workloads, memories, policies and parameters")
		verbose    = flag.Bool("v", false, "log every run")
		versionF   = flag.Bool("version", false, "print protocol and harness versions, then exit")
	)
	flag.Var(params, "param", "parameter axis name=v1,v2,... (repeatable; see -list)")
	tlsOpts.Flags(flag.CommandLine)
	fleetOpts.Flags(flag.CommandLine)
	logOpts.Flags(flag.CommandLine)
	flag.Parse()

	if *versionF {
		fmt.Println(dist.VersionLine("vbisweep"))
		return
	}
	logger, err := logOpts.New(os.Stderr)
	if err != nil {
		fatal(err)
	}

	if *list {
		printList()
		return
	}

	if *cacheStats || *cachePrune {
		if *cacheDir == "" {
			fatal(fmt.Errorf("-cache-stats/-cache-prune need -cache"))
		}
		maintainCache(&harness.Cache{Dir: *cacheDir}, *cachePrune)
		return
	}

	if err := harness.ValidateMetric(*metric); err != nil {
		fatal(err)
	}

	// Client modes against a vbisweepd daemon. -watch and -cancel need no
	// grid; -submit falls through to grid construction first.
	if *submitF || *watchF != "" || *cancelF != "" {
		if *daemon == "" {
			fatal(fmt.Errorf("-submit/-watch/-cancel need -daemon"))
		}
		modes := 0
		for _, on := range []bool{*submitF, *watchF != "", *cancelF != ""} {
			if on {
				modes++
			}
		}
		if modes > 1 {
			fatal(fmt.Errorf("give exactly one of -submit, -watch or -cancel"))
		}
	} else if *daemon != "" {
		fatal(fmt.Errorf("-daemon needs one of -submit, -watch or -cancel"))
	}
	var client *sweepd.Client
	if *daemon != "" {
		httpc, err := tlsOpts.Client()
		if err != nil {
			fatal(err)
		}
		client = &sweepd.Client{
			Base:      dist.ApplyScheme([]string{*daemon}, tlsOpts.Scheme())[0],
			AuthToken: dist.ResolveToken(fleetOpts.AuthToken),
			HTTP:      httpc,
		}
	}
	if *cancelF != "" {
		st, err := client.Cancel(*cancelF)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sweep %s: %s\n", st.ID, st.State)
		return
	}
	if *watchF != "" {
		watchSweep(client, *watchF, *jsonOut, *csvOut)
		return
	}

	var grid harness.Grid
	if *config != "" {
		// The axis flags silently losing to -config was a footgun; make
		// the conflict explicit.
		axisFlags := map[string]bool{
			"systems": true, "workloads": true, "seeds": true, "refs": true,
			"param": true, "hetero": true, "policies": true, "bundle": true,
		}
		var conflict []string
		flag.Visit(func(f *flag.Flag) {
			if axisFlags[f.Name] {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			fatal(fmt.Errorf("-config is exclusive with the axis flags (%s); put the axes in the config file",
				strings.Join(conflict, ", ")))
		}
		g, err := harness.LoadGrid(*config)
		if err != nil {
			fatal(err)
		}
		grid = g
		if grid.Refs == 0 && len(grid.RefsAxis) == 0 {
			grid.Refs = 100_000
		}
	} else {
		seeds, err := parseSeeds(orDefault(*seedsF, "1"))
		if err != nil {
			fatal(err)
		}
		refsAxis, err := parseInts(orDefault(*refsF, "100000"))
		if err != nil {
			fatal(fmt.Errorf("bad -refs: %w", err))
		}
		bundles, err := harness.ParseBundles(*bundlesF)
		if err != nil {
			fatal(err)
		}
		// A bundle-only sweep should not silently grow default single-core
		// rows; -workloads still adds them explicitly.
		workloadDefault := "mcf,graph500"
		if len(bundles) > 0 {
			workloadDefault = ""
		}
		grid = harness.Grid{
			Workloads: splitList(orDefault(*workloadsF, workloadDefault)),
			Bundles:   bundles,
			Seeds:     seeds,
			RefsAxis:  refsAxis,
			Params:    params,
		}
		if *heteroF != "" {
			if *systemsF != "" {
				fatal(fmt.Errorf("-hetero replaces -systems; give one or the other"))
			}
			if len(bundles) > 0 {
				fatal(fmt.Errorf("-bundle conflicts with -hetero: bundles are multiprogrammed, heterogeneous jobs are single-core"))
			}
			grid.HeteroMems = splitList(*heteroF)
			grid.Policies = splitList(*policiesF)
		} else {
			if *policiesF != "" {
				fatal(fmt.Errorf("-policies only applies to -hetero grids"))
			}
			grid.Systems = splitList(orDefault(*systemsF, "Native,VBI-Full"))
		}
	}

	if *submitF {
		resp, err := client.Submit(sweepd.SubmitRequest{
			Version: dist.ProtocolVersion,
			Name:    *nameF,
			Grid:    grid,
			Metric:  *metric,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("submitted %s (%d jobs)\nwatch with: vbisweep -daemon %s -watch %s\n",
			resp.ID, resp.Total, *daemon, resp.ID)
		return
	}

	jobs, err := grid.Jobs()
	if err != nil {
		fatal(err)
	}

	runner := &harness.Runner{Workers: *workers}
	if *cacheDir != "" {
		runner.Cache = &harness.Cache{Dir: *cacheDir}
	}
	if *verbose {
		runner.Progress = os.Stderr
	}
	exec, closeFleet, err := fleetOpts.Coordinator("vbisweep", tlsOpts, runner, logger)
	if err != nil {
		fatal(err)
	}
	defer closeFleet()
	// Ctrl-C stops feeding the pool: in-flight jobs finish and cached
	// results stay, so the next invocation resumes from there. Once
	// cancelled the handler unregisters, so a second Ctrl-C kills the
	// process instead of waiting out the in-flight simulations.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	results, err := exec.Run(ctx, jobs)
	if err != nil {
		fatal(err)
	}

	t, err := grid.Matrix(results, *metric)
	if err != nil {
		fatal(err)
	}
	fmt.Print(t.Render())

	cached := 0
	for _, r := range results {
		if r.Cached {
			cached++
		}
	}
	fmt.Printf("\n%d runs (%d simulated, %d from cache)\n",
		len(results), len(results)-cached, cached)

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := t.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		if err := t.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// watchSweep polls one sweep to completion, reporting progress to stderr,
// then renders its matrix like a local run: table to stdout, optional
// -json/-csv files. The re-rendered WriteJSON output is byte-identical to
// what a serial local `vbisweep -json` writes for the same grid.
func watchSweep(client *sweepd.Client, id, jsonOut, csvOut string) {
	var last string
	for {
		sr, err := client.Get(id)
		if err != nil {
			fatal(err)
		}
		line := fmt.Sprintf("sweep %s: %s %d/%d (%d cached, %d in flight, %d queued)",
			sr.ID, sr.State, sr.Completed, sr.Total, sr.Cached, sr.InFlight, sr.Queued)
		if sr.JobsPerSecond > 0 {
			line += fmt.Sprintf(" — %.1f jobs/s, ETA %s", sr.JobsPerSecond,
				(time.Duration(sr.ETASeconds * float64(time.Second))).Round(time.Second))
		}
		if line != last {
			fmt.Fprintln(os.Stderr, line)
			last = line
		}
		switch sr.State {
		case sweepd.StateFailed:
			fatal(fmt.Errorf("sweep %s failed: %s", sr.ID, sr.Error))
		case sweepd.StateCancelled:
			fatal(fmt.Errorf("sweep %s was cancelled", sr.ID))
		case sweepd.StateDone:
			var t stats.Table
			if err := json.Unmarshal(sr.Table, &t); err != nil {
				fatal(fmt.Errorf("decode result table: %w", err))
			}
			fmt.Print(t.Render())
			fmt.Printf("\n%d runs (%d served from daemon cache)\n", sr.Total, sr.Cached)
			if sr.SimSeconds > 0 {
				fmt.Printf("worker compute: %.2fs across %d simulated jobs\n",
					sr.SimSeconds, sr.Total-sr.Cached)
			}
			if sr.Phases != nil {
				fmt.Printf("phase events: %s\n", sr.Phases)
			}
			if jsonOut != "" {
				f, err := os.Create(jsonOut)
				if err != nil {
					fatal(err)
				}
				if err := t.WriteJSON(f); err != nil {
					fatal(err)
				}
				if err := f.Close(); err != nil {
					fatal(err)
				}
			}
			if csvOut != "" {
				f, err := os.Create(csvOut)
				if err != nil {
					fatal(err)
				}
				if err := t.WriteCSV(f); err != nil {
					fatal(err)
				}
				if err := f.Close(); err != nil {
					fatal(err)
				}
			}
			return
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// maintainCache implements -cache-stats and -cache-prune.
func maintainCache(cache *harness.Cache, prune bool) {
	st, err := cache.Stats()
	if err != nil {
		fatal(err)
	}
	if prune {
		// Say what is about to go before deleting anything: stale entries
		// and their bytes come from the same Stats scan the -cache-stats
		// report uses.
		staleEntries, staleBytes := st.Stale(harness.Version)
		fmt.Printf("pruning %d stale entries (%d bytes) not matching %s\n",
			staleEntries, staleBytes, harness.Version)
		removed, err := cache.Prune(harness.Version)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pruned %d entries\n", removed)
		// Re-scan for the closing report: what is actually on disk after
		// the mutation, not an inference from the pre-prune scan.
		if st, err = cache.Stats(); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("cache %s: %d entries, %d bytes\n", cache.Dir, st.Entries, st.Bytes)
	versions := make([]string, 0, len(st.Versions))
	for v := range st.Versions {
		versions = append(versions, v)
	}
	sort.Strings(versions)
	for _, v := range versions {
		note := ""
		if v != harness.Version {
			note = "  (stale: -cache-prune reclaims)"
		}
		fmt.Printf("  %-20s %d%s\n", v, st.Versions[v], note)
	}
}

// printList enumerates everything a sweep axis can name.
func printList() {
	harness.WriteSpecList(os.Stdout)
	fmt.Println("workloads:")
	for _, n := range workloads.Names() {
		fmt.Printf("  %s\n", n)
	}
	harness.WriteBundleList(os.Stdout)
	harness.WriteHeteroList(os.Stdout)
	harness.WriteParamList(os.Stdout)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, p := range splitList(s) {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vbisweep:", err)
	os.Exit(1)
}
