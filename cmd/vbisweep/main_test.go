package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputGolden pins what a user of vbisweep reads for one small grid
// of single-core and bundle rows: the rendered table with its run
// summary, and the -json and -csv files. Set VBI_GOLDEN_REGEN to rewrite
// the files after a deliberate change to the output or to simulated
// results.
func TestOutputGolden(t *testing.T) {
	dir := t.TempDir()
	jsonOut, csvOut := filepath.Join(dir, "out.json"), filepath.Join(dir, "out.csv")
	var stdout bytes.Buffer
	err := run([]string{"-systems", "Native,VBI-Full", "-workloads", "namd", "-bundle", "pair=namd+sjeng",
		"-refs", "5000", "-json", jsonOut, "-csv", csvOut}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ golden, got string }{
		{"grid.txt", ""},
		{"grid.json", jsonOut},
		{"grid.csv", csvOut},
	} {
		got := stdout.Bytes()
		if c.got != "" {
			if got, err = os.ReadFile(c.got); err != nil {
				t.Fatal(err)
			}
		}
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
			t.Errorf("output differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
		}
	}
}

// TestDaemonFlagUnknown asserts vbisweep has no sweep-daemon client
// flags and no dynamic-fleet listener: a command line that names one is
// a flag error (main exits 2). Resuming a sweep is a re-run with the
// same -cache, and the -remote list is the whole fleet.
func TestDaemonFlagUnknown(t *testing.T) {
	for _, name := range []string{"-daemon", "-submit", "-watch", "-cancel", "-name", "-fleet"} {
		var stderr bytes.Buffer
		err := run([]string{name, "x"}, io.Discard, &stderr)
		var fe flagError
		if !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want a flag error", name, err)
		}
		if want := "flag provided but not defined: " + name; !strings.Contains(stderr.String(), want) {
			t.Errorf("%s: stderr %q does not contain %q", name, stderr.String(), want)
		}
	}
}
