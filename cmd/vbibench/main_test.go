package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// elapsed matches a figure's wall-clock footer, the one line of the
// output that differs between identical runs.
var elapsed = regexp.MustCompile(`\((\w+) completed in [^)]*\)`)

// TestOutputGolden pins what a user of vbibench reads: both static
// tables and one small figure, with each figure's timing line masked. Set
// VBI_GOLDEN_REGEN to rewrite the files after a deliberate change to the
// output or to simulated results.
func TestOutputGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"table1.txt", []string{"-exp", "table1"}},
		{"table2.txt", []string{"-exp", "table2"}},
		{"ablation.txt", []string{"-exp", "ablation", "-refs", "5000", "-workers", "2"}},
	} {
		var stdout bytes.Buffer
		if err := run(c.args, &stdout, io.Discard); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		got := elapsed.ReplaceAll(stdout.Bytes(), []byte("($1 completed in …)"))
		path := filepath.Join("testdata", c.golden)
		if os.Getenv("VBI_GOLDEN_REGEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("golden regenerated: %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (regenerate with VBI_GOLDEN_REGEN=1): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: output differs from %s\ngot:\n%s\nwant:\n%s", c.args, path, got, want)
		}
	}
}

// TestFleetFlagUnknown asserts vbibench has no dynamic-fleet listener:
// -fleet is a flag error (main exits 2), and the -remote list is the
// whole fleet.
func TestFleetFlagUnknown(t *testing.T) {
	var stderr bytes.Buffer
	err := run([]string{"-fleet", "x"}, io.Discard, &stderr)
	var fe flagError
	if !errors.As(err, &fe) {
		t.Errorf("err = %v, want a flag error", err)
	}
	if want := "flag provided but not defined: -fleet"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q does not contain %q", stderr.String(), want)
	}
}
