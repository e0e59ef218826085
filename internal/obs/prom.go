package obs

import (
	"fmt"
	"io"
	"strconv"
)

// This file is the shared Prometheus text-exposition writer: three
// lines of header per family plus one line per sample, hand-rolled
// because the format is trivial and a client library is a dependency
// this repo does not take. Rendering is deterministic — callers pass
// samples in sorted order, so two scrapes of the same state are
// byte-identical and diffable. The worker's /metrics is its one
// writer.

// Label is one name="value" pair on a sample.
type Label struct {
	Key   string
	Value string
}

// Sample is one exposition line's value and labels. Value is printed
// with %v so integer-valued counters render without a decimal point.
type Sample struct {
	Labels []Label
	Value  any
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// S builds a sample.
func S(value any, labels ...Label) Sample { return Sample{Labels: labels, Value: value} }

// WriteFamily renders one metric family: HELP/TYPE header plus each
// sample in the given order.
func WriteFamily(w io.Writer, name, help, typ string, samples []Sample) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		if len(s.Labels) == 0 {
			fmt.Fprintf(w, "%s %v\n", name, s.Value)
			continue
		}
		fmt.Fprintf(w, "%s{", name)
		for i, l := range s.Labels {
			if i > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, "%s=%q", l.Key, l.Value)
		}
		fmt.Fprintf(w, "} %v\n", s.Value)
	}
}

// formatBound renders a bucket bound the shortest way that round-trips
// ("0.25", "1", "10").
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// WriteHistogram renders a snapshot as a Prometheus histogram family:
// cumulative <name>_bucket{le="..."} lines (the +Inf bucket last), then
// <name>_sum and <name>_count. base labels, when given, prefix every
// line's label set (e.g. a worker="..." dimension).
func WriteHistogram(w io.Writer, name, help string, base []Label, s HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	line := func(suffix string, labels []Label, v any) {
		fmt.Fprintf(w, "%s%s{", name, suffix)
		for i, l := range labels {
			if i > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, "%s=%q", l.Key, l.Value)
		}
		fmt.Fprintf(w, "} %v\n", v)
	}
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		line("_bucket", append(append([]Label{}, base...), L("le", formatBound(b))), cum)
	}
	if len(s.Counts) > len(s.Bounds) {
		cum += s.Counts[len(s.Bounds)]
	}
	line("_bucket", append(append([]Label{}, base...), L("le", "+Inf")), cum)
	if len(base) == 0 {
		fmt.Fprintf(w, "%s_sum %v\n%s_count %d\n", name, s.Sum, name, s.Count)
		return
	}
	line("_sum", base, s.Sum)
	line("_count", base, s.Count)
}

// QuantileSamples renders a snapshot's estimated quantiles as gauge
// samples with a quantile="..." label appended to base, in the given
// quantile order (pass ascending quantiles for sorted output).
func QuantileSamples(s HistogramSnapshot, quantiles []float64, base ...Label) []Sample {
	out := make([]Sample, 0, len(quantiles))
	for _, q := range quantiles {
		labels := append(append([]Label{}, base...), L("quantile", formatBound(q)))
		out = append(out, Sample{Labels: labels, Value: s.Quantile(q)})
	}
	return out
}
