package harness

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"vbi/internal/system"
)

// cacheWithEntry returns a cache holding one real entry for job, plus the
// entry's file path.
func cacheWithEntry(t *testing.T, job Job) (*Cache, string) {
	t.Helper()
	c := &Cache{Dir: t.TempDir()}
	if err := c.Put(job, []system.RunResult{{System: job.Spec.Name, IPC: 1.5}}); err != nil {
		t.Fatal(err)
	}
	path := c.path(c.Key(job))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry file missing: %v", err)
	}
	return c, path
}

var cacheJob = Job{Spec: system.MustSpec("Native"), Workloads: []string{"namd"}, Refs: 1000, Seed: 1}

// TestCacheTruncatedEntryMisses asserts a partially written / truncated
// entry file reads as a miss, not a crash or a bogus hit.
func TestCacheTruncatedEntryMisses(t *testing.T) {
	c, path := cacheWithEntry(t, cacheJob)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(cacheJob); ok {
		t.Error("truncated entry served as a hit")
	}
}

// TestCacheCorruptEntryMisses asserts a non-JSON entry file reads as a
// miss.
func TestCacheCorruptEntryMisses(t *testing.T) {
	c, path := cacheWithEntry(t, cacheJob)
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(cacheJob); ok {
		t.Error("corrupt entry served as a hit")
	}
}

// TestCacheResultCountMismatchMisses asserts an entry that matches its
// job but does not hold one result per workload reads as a miss: served
// as a hit, an emptied "results" array prints 0.000 in the matrix.
func TestCacheResultCountMismatchMisses(t *testing.T) {
	c, path := cacheWithEntry(t, cacheJob)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	e.Results = nil
	nb, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, nb, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, ok := c.Get(cacheJob); ok {
		t.Errorf("entry with %d results for one workload served as a hit", len(res))
	}

	// A bundle entry holding one core's result is short too.
	bundle := Job{Spec: system.MustSpec("Native"), Workloads: []string{"namd", "sjeng"}, Refs: 1000, Seed: 1}
	c, _ = cacheWithEntry(t, bundle)
	if res, ok := c.Get(bundle); ok {
		t.Errorf("entry with %d results for a two-workload bundle served as a hit", len(res))
	}
}

// TestCacheSpecMismatchMisses asserts an entry whose embedded job spec
// does not round-trip to the requested one (hash collision, hand-edited
// file, entry copied to the wrong key) reads as a miss.
func TestCacheSpecMismatchMisses(t *testing.T) {
	c, path := cacheWithEntry(t, cacheJob)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the stored spec for a different job, keeping version and
	// results intact — exactly what a collision would look like.
	var e struct {
		Version string             `json:"version"`
		Job     Job                `json:"job"`
		Results []system.RunResult `json:"results"`
	}
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	e.Job.Refs = 2000
	nb, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, nb, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(cacheJob); ok {
		t.Error("entry with a mismatched spec served as a hit")
	}
}

// TestCacheVersionInvalidation asserts a schema-version bump turns every
// prior entry into a miss, that Stats reports the stale entries, and that
// Prune reclaims them (and only them).
func TestCacheVersionInvalidation(t *testing.T) {
	c, path := cacheWithEntry(t, cacheJob)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(b), Version, "vbi-harness-v1", 1)
	if stale == string(b) {
		t.Fatal("entry does not embed the version string")
	}
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(cacheJob); ok {
		t.Error("stale-version entry served as a hit")
	}

	// Add a current entry and a corrupt file; Stats must bucket all three.
	current := Job{Spec: system.MustSpec("VBI-Full"), Workloads: []string{"namd"}, Refs: 1000}
	if err := c.Put(current, []system.RunResult{{System: "VBI-Full", IPC: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(strings.Repeat("ff", 32)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 3 || st.Bytes == 0 {
		t.Errorf("stats = %+v, want 3 entries with non-zero bytes", st)
	}
	want := map[string]int{Version: 1, "vbi-harness-v1": 1, "corrupt": 1}
	for v, n := range want {
		if st.Versions[v] != n {
			t.Errorf("stats.Versions[%q] = %d, want %d (all: %v)", v, st.Versions[v], n, st.Versions)
		}
	}

	removed, err := c.Prune(Version)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("Prune removed %d files, want 2 (stale + corrupt)", removed)
	}
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Versions[Version] != 1 {
		t.Errorf("post-prune stats = %+v, want only the current entry", st)
	}
	if _, ok := c.Get(current); !ok {
		t.Error("Prune removed the current-version entry")
	}
}

// TestRunnerContextCancel asserts the pool honors cancellation: a
// cancelled batch returns ctx.Err(), and cancellation mid-run skips the
// queued jobs while letting in-flight ones finish (their results still
// land in the cache for the next invocation).
func TestRunnerContextCancel(t *testing.T) {
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Spec: system.MustSpec("Native"), Workloads: []string{"namd"},
			Refs: 2_000, Seed: uint64(i + 1)}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Runner{Workers: 2}).Run(ctx, jobs); err != context.Canceled {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}

	// Cancel after the first completed job: the batch must fail with
	// ctx.Err(), but whatever finished before the cancel is cached.
	cache := &Cache{Dir: t.TempDir()}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	r := &Runner{Workers: 1, Cache: cache, Progress: writerFunc(func(p []byte) (int, error) {
		cancel() // fires on the first progress line
		return len(p), nil
	})}
	if _, err := r.Run(ctx, jobs); err != context.Canceled {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	n, err := cache.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no in-flight job completed into the cache before cancel")
	}
	if n == len(jobs) {
		t.Error("every job ran despite the cancel")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
