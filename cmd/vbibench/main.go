// Command vbibench regenerates the paper's evaluation: every table and
// figure of §7, printed as the same rows and series the paper reports.
// Runs execute through the internal/harness worker pool; -cache makes
// repeated invocations incremental.
//
// Usage:
//
//	vbibench -exp fig6 -refs 400000
//	vbibench -exp all -out results.txt -workers 8 -cache .vbicache
//	vbibench -exp fig6 -json fig6.json -csv fig6.csv
//	vbibench -exp fig6 -param l2_tlb_entries=1024   # figures under altered hardware
//	vbibench -exp all -remote 10.0.0.7:9471,10.0.0.8:9471 -cache .vbicache
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"vbi/internal/dist"
	"vbi/internal/exp"
	"vbi/internal/harness"
	"vbi/internal/obs"
	"vbi/internal/stats"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var fe flagError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, &fe):
		// The flag set has already printed the error and the usage.
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "vbibench:", err)
		os.Exit(1)
	}
}

// flagError is a malformed command line; main exits 2 for it, as
// flag.Parse would.
type flagError struct{ error }

// run parses args, runs the experiments they name and writes their tables
// to stdout (and -out); progress and fleet lines go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vbibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	params := harness.ParamAxes{}
	tlsOpts := &dist.TLSOptions{}
	fleetOpts := &dist.FleetOptions{}
	var (
		profile = fs.String("profile", "", `capture pprof profiles of this process: "cpu,heap,out=DIR" (either profile kind, comma-separated; out= names the directory)`)
		version = fs.Bool("version", false, "print protocol and harness versions, then exit")
	)
	var (
		which   = fs.String("exp", "all", "experiment: table1, table2, fig6, fig7, fig8, fig9, fig10, dram, ablation, cvt or all")
		refs    = fs.Int("refs", 400_000, "measured references per run")
		seed    = fs.Uint64("seed", 1, "trace seed")
		out     = fs.String("out", "", "also write results to this file")
		workers = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cache   = fs.String("cache", "", "result-cache directory (empty = no cache)")
		jsonOut = fs.String("json", "", "write figure tables as JSON to this file")
		csvOut  = fs.String("csv", "", "write figure tables as CSV to this file")
		verbose = fs.Bool("v", false, "log every run")
	)
	fs.Var(params, "param", "parameter override name=value applied to every run (repeatable; see vbisweep -list)")
	tlsOpts.Flags(fs)
	fleetOpts.Flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return flagError{err}
	}
	if *version {
		fmt.Fprintln(stdout, dist.VersionLine("vbibench"))
		return nil
	}

	overlay, err := params.Overlay()
	if err != nil {
		return err
	}

	// -profile wraps the whole invocation: CPU capture starts before the
	// first figure and the heap snapshot is taken after the last, so one
	// run yields where simulation time and memory actually go.
	profiles, err := obs.StartProfiles(*profile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := profiles.Stop(); perr != nil {
			fmt.Fprintln(stderr, "vbibench: profile:", perr)
		}
	}()

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}
	// Exports accumulate across figures: -json writes one document (an
	// array of {experiment, table} objects), -csv one file per figure
	// (suffixed with the figure name when several run), so the outputs
	// stay parseable under -exp all.
	type namedTable struct {
		Experiment string       `json:"experiment"`
		Table      *stats.Table `json:"table"`
	}
	// Initialized non-nil so -json writes "[]" (not "null") when only the
	// static tables run.
	exported := []namedTable{}

	// Ctrl-C stops the current figure at job granularity:
	// completed work stays cached, so the next invocation resumes there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	o := exp.Options{Refs: *refs, Seed: *seed, Workers: *workers, CacheDir: *cache,
		Params: overlay, Context: ctx}
	if *verbose {
		o.Progress = stderr
	}

	local := &harness.Runner{Workers: *workers, Progress: o.Progress}
	if *cache != "" {
		local.Cache = &harness.Cache{Dir: *cache}
	}
	coord, err := fleetOpts.Coordinator(tlsOpts, local, nil)
	if err != nil {
		return err
	}
	o.Executor = coord

	figures := map[string]func(exp.Options) (*stats.Table, error){
		"fig6": exp.Fig6, "fig7": exp.Fig7, "fig8": exp.Fig8,
		"fig9": exp.Fig9, "fig10": exp.Fig10, "dram": exp.DRAMTable,
		"ablation": exp.AblationFlexible, "cvt": exp.CVTTable,
	}
	order := []string{"table1", "table2", "fig6", "fig7", "fig8",
		"fig9", "fig10", "dram", "ablation", "cvt"}

	runExp := func(name string) error {
		start := time.Now()
		switch name {
		case "table1":
			fmt.Fprintln(w, exp.Table1())
		case "table2":
			fmt.Fprintln(w, exp.Table2())
		default:
			fn, ok := figures[name]
			if !ok {
				return fmt.Errorf("unknown experiment %q (want %s or all)",
					name, strings.Join(order, ", "))
			}
			t, err := fn(o)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t.Render())
			fmt.Fprintf(w, "(%s completed in %v)\n\n", name, time.Since(start).Round(time.Second))
			exported = append(exported, namedTable{Experiment: name, Table: t})
		}
		return nil
	}

	names := []string{*which}
	if *which == "all" {
		names = order
	}
	for _, name := range names {
		if err := runExp(name); err != nil {
			return err
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(exported); err != nil {
			f.Close()
			return fmt.Errorf("json export: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *csvOut != "" {
		if len(exported) == 0 {
			fmt.Fprintf(stderr, "vbibench: no figure tables ran; %s not written\n", *csvOut)
		}
		for _, nt := range exported {
			path := *csvOut
			if len(exported) > 1 {
				ext := filepath.Ext(path)
				path = strings.TrimSuffix(path, ext) + "-" + nt.Experiment + ext
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := nt.Table.WriteCSV(f); err != nil {
				f.Close()
				return fmt.Errorf("%s: csv export: %w", nt.Experiment, err)
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
