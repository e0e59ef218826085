package system

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vbi/internal/trace"
	"vbi/internal/workloads"
)

// goldenRefs keeps the byte-identity matrix fast while still driving every
// probe path through evictions, writebacks and (for the VBI-policy hetero
// runs) one migration epoch.
const goldenRefs = 20_000

// goldenResults runs every registered kind plus four hetero machines (both
// memories, all three placement policies) and returns the RunResult list
// in deterministic order.
func goldenResults(t *testing.T) []RunResult {
	t.Helper()
	prof := workloads.MustGet("mcf")
	var out []RunResult
	for _, kind := range Kinds() {
		m, err := New(Config{Kind: kind, Refs: goldenRefs}, prof)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		out = append(out, res)
	}
	// PCM-DRAM/VBI comes first: it was the only pinned hetero shape
	// before the others were added, and its entry keeps its place.
	for _, hc := range []HeteroConfig{
		{Mem: HeteroPCMDRAM, Policy: PolicyVBI},
		{Mem: HeteroPCMDRAM, Policy: PolicyUnaware},
		{Mem: HeteroPCMDRAM, Policy: PolicyIdeal},
		{Mem: HeteroTLDRAM, Policy: PolicyVBI},
	} {
		hc.Refs = goldenRefs
		h, err := NewHetero(hc, prof)
		if err != nil {
			t.Fatalf("hetero %v/%v: %v", hc.Mem, hc.Policy, err)
		}
		res, err := h.Run()
		if err != nil {
			t.Fatalf("hetero %v/%v: %v", hc.Mem, hc.Policy, err)
		}
		out = append(out, res)
	}
	return out
}

// TestGoldenRunResults pins the simulated results of all ten registered
// kinds plus the hetero placement runs byte-for-byte against the committed
// goldens. The goldens were generated on the pre-map-free probe paths, so
// this test IS the old-vs-new byte-identity proof for the hot-loop
// rewrite: any change to LRU tick order, eviction choice, writeback
// sequencing or latency accounting shows up as a diff here.
//
// Regenerate (only when the timing model intentionally changes, alongside
// a harness.Version review) with:
//
//	VBI_GOLDEN_REGEN=1 go test -run TestGoldenRunResults ./internal/system
func TestGoldenRunResults(t *testing.T) {
	if testing.Short() {
		t.Skip("byte-identity matrix runs fourteen machines; skipped in -short")
	}
	checkGolden(t, "golden_runresults.json", goldenResults(t))
}

// TestGoldenUniformTables pins the §5.2 flexible-structure ablation, which
// the default-config goldens above never reach: VBI-1, VBI-2 and VBI-Full
// on mcf with every VB backed by a fixed 4-level table. Regenerate only
// under the same rule as TestGoldenRunResults:
//
//	VBI_GOLDEN_REGEN=1 go test -run TestGoldenUniformTables ./internal/system
func TestGoldenUniformTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three VBI machines; skipped in -short")
	}
	prof := workloads.MustGet("mcf")
	var out []RunResult
	for _, kind := range []Kind{VBI1, VBI2, VBIFull} {
		m, err := New(Config{Kind: kind, Refs: goldenRefs, UniformTables: true}, prof)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		out = append(out, res)
	}
	checkGolden(t, "golden_uniform.json", out)
}

// bundleGoldenRefs is per core: four cores step warmup+refs each.
const bundleGoldenRefs = 8_000

// goldenBundle names one quad-core Multicore run in golden_bundles.json.
type goldenBundle struct {
	Name  string
	Kind  string
	Cores []RunResult
}

// goldenBundles runs the Table 2 wl3 bundle under one kind of each runner
// family (conventional, nested, virtual cache, Enigma, VBI) plus four
// copies of mcf under VIVT, where every core tags the same virtual lines
// so LLC back-invalidations hit lines present in peer private caches.
func goldenBundles(t *testing.T) []goldenBundle {
	t.Helper()
	mcf := workloads.MustGet("mcf")
	runs := []struct {
		name  string
		kind  Kind
		profs []trace.Profile
	}{
		{"wl3", Native, bundleProfiles(t, "wl3")},
		{"wl3", Virtual2M, bundleProfiles(t, "wl3")},
		{"wl3", VIVT, bundleProfiles(t, "wl3")},
		{"wl3", EnigmaHW2M, bundleProfiles(t, "wl3")},
		{"wl3", VBIFull, bundleProfiles(t, "wl3")},
		{"4xmcf", VIVT, []trace.Profile{mcf, mcf, mcf, mcf}},
	}
	var out []goldenBundle
	for _, r := range runs {
		m, err := NewMulticore(Config{Kind: r.kind, Refs: bundleGoldenRefs}, r.profs)
		if err != nil {
			t.Fatalf("%s/%s: %v", r.name, r.kind, err)
		}
		cores, err := m.Run()
		if err != nil {
			t.Fatalf("%s/%s: %v", r.name, r.kind, err)
		}
		out = append(out, goldenBundle{Name: r.name, Kind: r.kind.String(), Cores: cores})
	}
	return out
}

// TestGoldenBundleResults pins serial Multicore.Run per-core results
// byte-for-byte: the causal smallest-now() interleave, shared-LLC
// back-invalidation into peer private caches, and shared OS/MTL state.
// Regenerate only under the same rule as TestGoldenRunResults:
//
//	VBI_GOLDEN_REGEN=1 go test -run TestGoldenBundleResults ./internal/system
func TestGoldenBundleResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six quad-core machines; skipped in -short")
	}
	checkGolden(t, "golden_bundles.json", goldenBundles(t))
}

func bundleProfiles(t *testing.T, name string) []trace.Profile {
	t.Helper()
	var profs []trace.Profile
	for _, app := range workloads.Bundles[name] {
		profs = append(profs, workloads.MustGet(app))
	}
	return profs
}

// checkGolden compares v's indented JSON with testdata/name, or rewrites
// the file when VBI_GOLDEN_REGEN is set.
func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	path := filepath.Join("testdata", name)
	got, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("VBI_GOLDEN_REGEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden regenerated: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with VBI_GOLDEN_REGEN=1): %v", err)
	}
	if string(got) != string(want) {
		gotPath := filepath.Join(t.TempDir(), "got.json")
		_ = os.WriteFile(gotPath, got, 0o644)
		t.Fatalf("simulated results diverged from committed goldens (%s);\n"+
			"got written to %s\n"+
			"the probe-path rewrite must be byte-identical — do NOT regenerate unless the timing model itself changed",
			path, gotPath)
	}
}
