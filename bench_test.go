// Package vbi's top-level benchmarks regenerate the paper's evaluation
// (§7): one benchmark per table and figure, each running a scaled-down
// version of the corresponding experiment and reporting its headline
// numbers as custom metrics. The figure benchmarks execute through the
// internal/harness worker pool (workers = GOMAXPROCS), so they also track
// the orchestrator's scaling. cmd/vbibench runs the same experiments at
// full scale and prints the paper-format tables; EXPERIMENTS.md records
// paper-vs-measured values.
//
// Run with: go test -bench=. -benchmem
package vbi

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"vbi/internal/exp"
	"vbi/internal/harness"
	"vbi/internal/stats"
	"vbi/internal/system"
	"vbi/internal/workloads"
)

// benchOptions routes a figure through the harness at full parallelism.
func benchOptions(refs int) exp.Options {
	return exp.Options{Refs: refs, Workers: runtime.GOMAXPROCS(0)}
}

// benchRefs keeps each figure regeneration to tens of seconds. The shapes
// are stable from ~50k references; cmd/vbibench defaults to 400k.
const benchRefs = 40_000

// reportAverages attaches each series' AVG row value as a metric.
func reportAverages(b *testing.B, t *stats.Table) {
	avgRow := -1
	for i, r := range t.Rows {
		if r == "AVG" {
			avgRow = i
		}
	}
	if avgRow < 0 {
		return
	}
	for _, s := range t.Series {
		if avgRow < len(s.Values) {
			name := strings.ReplaceAll(strings.ToLower(s.Label), " ", "-")
			b.ReportMetric(s.Values[avgRow], name+"-avg-speedup")
		}
	}
}

// BenchmarkTable1Config regenerates Table 1 (simulation configuration).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !strings.Contains(exp.Table1(), "DDR3-1600") {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable2Bundles regenerates Table 2 (workload bundles).
func BenchmarkTable2Bundles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !strings.Contains(exp.Table2(), "wl6") {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: single-core 4 KB-page systems over
// all fourteen applications, normalized to Native.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig6(benchOptions(benchRefs))
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, t)
	}
}

// BenchmarkFig7 regenerates Figure 7: large-page systems (including
// Enigma-HW-2M) normalized to Native-2M.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig7(benchOptions(benchRefs))
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, t)
	}
}

// BenchmarkFig8 regenerates Figure 8: quad-core weighted speedup over the
// Table 2 bundles, normalized to Native.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig8(benchOptions(benchRefs / 2))
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, t)
	}
}

// BenchmarkFig9 regenerates Figure 9: the PCM–DRAM hybrid memory under
// VBI vs hotness-unaware mapping (plus the IDEAL oracle).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig9(benchOptions(benchRefs))
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, t)
	}
}

// BenchmarkFig10 regenerates Figure 10: TL-DRAM under the same policies.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig10(benchOptions(benchRefs))
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, t)
	}
}

// BenchmarkAblationVBIVariants isolates each VBI mechanism on one
// translation-bound application: VBI-1 (virtual caches + flexible
// translation), VBI-2 (+ delayed allocation), VBI-Full (+ early
// reservation) — the design-choice ablation DESIGN.md calls out.
func BenchmarkAblationVBIVariants(b *testing.B) {
	prof := workloads.MustGet("graph500")
	for _, kind := range []system.Kind{system.Native, system.VBI1, system.VBI2, system.VBIFull} {
		b.Run(strings.ReplaceAll(kind.String(), " ", "-"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := system.New(system.Config{Kind: kind, Refs: benchRefs}, prof)
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.IPC, "ipc")
				b.ReportMetric(float64(res.DRAMAccesses), "dram-accesses")
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures the simulator itself: simulated
// references per second for the heaviest system.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof := workloads.MustGet("mcf")
	m, err := system.New(system.Config{Kind: VBIFullKind, Refs: 1, Warmup: 1}, prof)
	if err != nil {
		b.Fatal(err)
	}
	_ = m
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := system.New(system.Config{Kind: VBIFullKind, Refs: benchRefs}, prof)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchRefs)*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// VBIFullKind re-exports the flagship configuration for the throughput
// benchmark.
const VBIFullKind = system.VBIFull

// BenchmarkHarnessWorkers measures the experiment orchestrator itself: the
// same job batch at one worker vs full parallelism. On a multi-core
// machine the ratio of the two is the harness's wall-clock win.
func BenchmarkHarnessWorkers(b *testing.B) {
	grid := harness.Grid{
		Systems:   []string{"Native", "VBI-Full"},
		Workloads: []string{"namd", "sjeng", "bzip2", "hmmer"},
		Refs:      benchRefs / 2,
	}
	jobs, err := grid.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&harness.Runner{Workers: workers}).Run(context.Background(), jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
