package system

import (
	"testing"

	"vbi/internal/workloads"
)

// BenchmarkNew is the set-up path: each sub-benchmark builds a single-core
// machine of one kind for mcf, mapping every structure and prefilling its
// live data, and never steps it. It is a quick set-up A/B beside
// pagetable's BenchmarkMapPrefill; vbiperf's setup_s times the same
// constructors over whole workload matrices.
func BenchmarkNew(b *testing.B) {
	prof := workloads.MustGet("mcf")
	for _, kind := range Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(Config{Kind: kind}, prof); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
