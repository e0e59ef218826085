// Command vbiperf runs the repository's host-throughput benchmark.
//
// Usage:
//
//	vbiperf -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]
//
// It prints a host line, one JSON line per metric and, last, a summary
// object {"correct", "attempted", "failed", "metrics"} whose metrics are
// the end-to-end ones, or the per-layer ones with -trace 1. -workload all
// runs each workload in a child process of its own, so peak RSS belongs
// to one workload. See ../../README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"

	"vbi/bench"
)

// madvFree is the runtime setting the benchmark runs under: the scavenger
// hands freed heap pages back with MADV_FREE, so a later constructor that
// reuses them takes no page faults. Under the default MADV_DONTNEED, the
// collection before each constructor lets the scavenger release the last
// machine's pages, and a quarter of constructor time went to faulting
// them back in: a cost set by the host's state, not by the simulator.
const madvFree = "madvdontneed=0"

func main() {
	if err := ensureGODEBUG(); err != nil {
		fail(err)
	}
	var (
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 25, "wall-clock budget for passes over the matrix")
		trace    = flag.Int("trace", 0, "1 adds CPU-profiled passes and reports the per-layer metrics")
		spans    = flag.String("spans", "", "write the run's spans as JSON to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fail(fmt.Errorf("usage: vbiperf -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]"))
	}
	if *workload == "all" {
		if *spans != "" {
			fail(fmt.Errorf("-spans needs a single workload"))
		}
		failed, err := runAll(*seed, *seconds, *trace)
		fail(err)
		if failed {
			os.Exit(1)
		}
		return
	}
	w, err := bench.Lookup(*workload)
	if err != nil {
		fail(err)
	}
	digests, err := bench.CommittedDigests(w, *seed)
	if err != nil {
		fail(err)
	}
	res, err := bench.Run(w, bench.Options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Digests: digests})
	if err != nil {
		fail(err)
	}
	if *spans != "" {
		if err := writeSpans(*spans, res); err != nil {
			fail(err)
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "vbiperf: run failed:", e)
	}

	enc := json.NewEncoder(os.Stdout)
	emit := func(v any) {
		if err := enc.Encode(v); err != nil {
			fail(err)
		}
	}
	emit(map[string]bench.Host{"host": bench.HostOf(res)})
	type line struct {
		Workload string `json:"workload"`
		bench.Metric
	}
	metrics := res.EndToEndMetrics()
	if *trace == 1 {
		metrics = res.PerLayerMetrics()
	}
	summary := map[string]any{}
	for _, m := range metrics {
		emit(line{w.Name, m})
		summary[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	frac := res.FailedFrac()
	emit(line{w.Name, bench.Metric{Name: "failed_frac", Value: frac, Unit: "fraction", Samples: res.Attempted, Min: frac, Max: frac}})
	emit(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   summary,
	})
	if res.Failed > 0 {
		os.Exit(1)
	}
}

// ensureGODEBUG re-executes the program with madvFree added to GODEBUG
// unless it is there already. The runtime reads GODEBUG only at start-up.
func ensureGODEBUG() error {
	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, madvFree) {
		return nil
	}
	if godebug != "" {
		godebug += ","
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := []string{"GODEBUG=" + godebug + madvFree}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GODEBUG=") {
			env = append(env, kv)
		}
	}
	return syscall.Exec(self, os.Args, env)
}

// runAll runs every workload in a fresh child process, one after another.
// A child that exits 1 has printed its results and had failed runs; the
// remaining workloads still run, and runAll reports failed. Any other
// child failure means a workload could not run, and stops it.
func runAll(seed uint64, seconds float64, trace int) (failed bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	for _, w := range bench.Workloads {
		cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case err == nil:
		case errors.As(err, &exit) && exit.ExitCode() == 1:
			failed = true
		default:
			return failed, fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return failed, nil
}

func writeSpans(path string, res *bench.Result) error {
	b, err := json.MarshalIndent(map[string]any{"workload": res.Workload, "seed": res.Seed, "spans": res.Spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fail reports a non-nil error and exits non-zero.
func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbiperf:", err)
		os.Exit(2)
	}
}
