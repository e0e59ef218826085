package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"vbi/internal/harness"
)

// digestFile holds the committed result digests: the SHA-256 of each
// run's canonical RunResult JSON, by harness version, then matrix key,
// then run name. Regenerate it with
//
//	VBI_BENCH_REGEN=1 go test -run TestDigests .
//
// in this directory, and only together with a harness.Version review:
// a change that moves simulated results must bump the version.
const digestFile = "testdata/digests.json"

//go:embed testdata/digests.json
var committedDigests []byte

// digestSeeds are the seeds whose digests are committed: the default
// seed and one held out.
var digestSeeds = []uint64{1, 2}

// matrixKey names one matrix: a workload at its reference count and a
// seed.
func matrixKey(w Workload, seed uint64) string {
	return fmt.Sprintf("%s/refs=%d/seed=%d", w.Name, w.Refs, seed)
}

// CommittedDigests returns the committed digests of a workload's matrix at
// a seed under the current harness version. For a seed outside digestSeeds
// it returns nil, and the benchmark checks only that every pass reproduces
// the first. A file with no digests for the current harness version, or
// none for this matrix at a digest seed, is stale: that is an error, so a
// version bump or a changed matrix cannot quietly turn the check off.
func CommittedDigests(w Workload, seed uint64) (map[string]string, error) {
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(committedDigests, &all); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", digestFile, err)
	}
	stale := func(what string) error {
		return fmt.Errorf("bench: %s has no digests for %s; regenerate it with VBI_BENCH_REGEN=1 (see bench/README.md)", digestFile, what)
	}
	matrices, ok := all[harness.Version]
	if !ok {
		return nil, stale("harness version " + harness.Version)
	}
	if !slices.Contains(digestSeeds, seed) {
		return nil, nil
	}
	key := matrixKey(w, seed)
	digests, ok := matrices[key]
	if !ok {
		return nil, stale(key)
	}
	return digests, nil
}

// writeDigests replaces the committed digest file with the given matrices
// under the current harness version.
func writeDigests(matrices map[string]map[string]string) error {
	b, err := json.MarshalIndent(map[string]map[string]map[string]string{harness.Version: matrices}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(b, '\n'), 0o644)
}
