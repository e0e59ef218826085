// Package stats provides the result-aggregation and rendering helpers the
// experiment harness uses to print the paper's tables and figure series:
// speedups, weighted speedups, means, and fixed-width ASCII tables.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean (0 for empty or non-positive input).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// WeightedSpeedup computes Σ IPCshared_i / IPCalone_i (the multiprogrammed
// metric of §7.2.3).
func WeightedSpeedup(shared, alone []float64) float64 {
	var ws float64
	for i := range shared {
		if alone[i] > 0 {
			ws += shared[i] / alone[i]
		}
	}
	return ws
}

// Series is one plotted line/bar group: a label and one value per row.
// The json tags pin the export format to the historical field names: the
// table document is compared byte-for-byte across runs, so a field
// rename must never change it.
//
//vbi:wire
type Series struct {
	Label  string    `json:"Label"`
	Values []float64 `json:"Values"`
}

// Table is a rendered experiment result: row labels (the x-axis) plus one
// or more series. Its JSON form is the `vbisweep -json` export format,
// byte-compared between distributed and local runs — hence the pinned
// tags.
//
//vbi:wire
type Table struct {
	Title  string   `json:"Title"`
	Rows   []string `json:"Rows"`
	Series []Series `json:"Series"`
}

// Add appends a value to the named series, creating it on first use.
func (t *Table) Add(series string, value float64) {
	for i := range t.Series {
		if t.Series[i].Label == series {
			t.Series[i].Values = append(t.Series[i].Values, value)
			return
		}
	}
	t.Series = append(t.Series, Series{Label: series, Values: []float64{value}})
}

// Get returns a series' values (nil if absent).
func (t *Table) Get(series string) []float64 {
	for i := range t.Series {
		if t.Series[i].Label == series {
			return t.Series[i].Values
		}
	}
	return nil
}

// Render prints the table with fixed-width columns.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
		b.WriteString(strings.Repeat("=", len(t.Title)) + "\n")
	}
	rowW := len("workload")
	for _, r := range t.Rows {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	colW := 12
	fmt.Fprintf(&b, "%-*s", rowW+2, "workload")
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%*s", colW, truncate(s.Label, colW-1))
	}
	b.WriteString("\n")
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", rowW+2, r)
		for _, s := range t.Series {
			if i < len(s.Values) {
				fmt.Fprintf(&b, "%*.3f", colW, s.Values[i])
			} else {
				fmt.Fprintf(&b, "%*s", colW, "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// Counters is a sorted name->value counter set for run summaries.
type Counters map[string]uint64

// Render prints counters sorted by name.
func (c Counters) Render() string {
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-28s %12d\n", n, c[n])
	}
	return b.String()
}
