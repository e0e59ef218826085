package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestReportGolden pins vbisim's whole report, as a user reads it, for a
// plain and a heterogeneous run. Set VBI_GOLDEN_REGEN to rewrite the
// files after a deliberate change to the report or to simulated results.
func TestReportGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"vbi-full-mcf.txt", []string{"-system", "VBI-Full", "-workload", "mcf", "-refs", "20000"}},
		{"tl-dram-ideal-mcf.txt", []string{"-hetero", "TL-DRAM", "-policy", "IDEAL", "-workload", "mcf", "-refs", "20000"}},
	} {
		var out bytes.Buffer
		if err := run(c.args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		path := filepath.Join("testdata", c.golden)
		if os.Getenv("VBI_GOLDEN_REGEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("golden regenerated: %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (regenerate with VBI_GOLDEN_REGEN=1): %v", err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v: report differs from %s\ngot:\n%s\nwant:\n%s", c.args, path, out.Bytes(), want)
		}
	}
}

// TestHeteroRejectsSystem: a heterogeneous run is always VBI-2, so an
// explicit -system beside -hetero is an error, not a silently ignored flag.
func TestHeteroRejectsSystem(t *testing.T) {
	if err := run([]string{"-hetero", "PCM-DRAM", "-system", "Native"}, io.Discard); err == nil {
		t.Fatal("vbisim accepted -system with -hetero")
	}
}
