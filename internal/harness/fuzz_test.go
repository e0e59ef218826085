package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"vbi/internal/system"
)

// fuzzJob builds a Job from raw fuzz inputs. It deliberately does not
// validate: the cache key must be well-defined (stable and injective) for
// any job the marshaller accepts, not only runnable ones, because Key is
// computed before Validate in some paths (cache tooling, wire decoding).
// A non-empty spec name or base materializes an inline (possibly
// unregistered) spec, exercising the v3 self-describing schema: the spec
// — base kind and materialized overlay included — is part of the
// canonical JSON the key hashes.
func fuzzJob(specName, base, wls string, refs, warmup int, seed uint64, het, pol string,
	uniform bool, paramIdx, paramVal, specParamIdx, specParamVal int) Job {
	var workloads []string
	for _, w := range strings.Split(wls, ",") {
		if w != "" {
			workloads = append(workloads, w)
		}
	}
	j := Job{
		Workloads: workloads, Refs: refs, Warmup: warmup,
		Seed: seed, HeteroMem: het, Policy: pol, UniformTables: uniform,
	}
	names := system.ParamNames()
	if specName != "" || base != "" || specParamVal > 0 {
		spec := &system.Spec{Name: specName, Base: base}
		if specParamIdx >= 0 && specParamVal > 0 {
			spec.Params.Set(names[specParamIdx%len(names)], specParamVal)
		}
		j.Spec = spec
	}
	if paramIdx >= 0 && paramVal > 0 {
		j.Params.Set(names[paramIdx%len(names)], paramVal)
	}
	return j
}

// FuzzJobKey fuzzes the result-cache key over pairs of jobs: the key must
// be a pure, stable function of the canonical job JSON — equal JSON means
// equal key, distinct JSON means distinct key — because that equivalence
// is what makes the on-disk cache sound (a hit can never serve a
// different experiment) and what keeps the dist wire format and the cache
// from drifting apart (both hash the same canonical bytes).
func FuzzJobKey(f *testing.F) {
	f.Add("Native", "Native", "mcf", 1000, 0, uint64(1), "", "", false, -1, 0, -1, 0,
		"Native", "Native", "mcf", 1000, 0, uint64(1), "", "", false, -1, 0, -1, 0)
	// Bundle order is significant: one core per workload, so a permuted
	// bundle is a different experiment and must key differently.
	f.Add("VBI-Full", "VBI-Full", "mcf,graph500", 1000, 0, uint64(1), "", "", false, -1, 0, -1, 0,
		"VBI-Full", "VBI-Full", "graph500,mcf", 1000, 0, uint64(1), "", "", false, -1, 0, -1, 0)
	// Hetero jobs and param overlays.
	f.Add("", "", "sphinx3", 1000, 500, uint64(2), "PCM-DRAM", "VBI", false, -1, 0, -1, 0,
		"", "", "sphinx3", 1000, 500, uint64(2), "TL-DRAM", "VBI", false, -1, 0, -1, 0)
	f.Add("Native", "Native", "namd", 5000, 0, uint64(1), "", "", false, 0, 512, -1, 0,
		"Native", "Native", "namd", 5000, 0, uint64(1), "", "", false, 1, 512, -1, 0)
	// Zero-value neighbors: Refs 0 (default) vs explicit 0-adjacent values.
	f.Add("Native", "Native", "namd", 0, 0, uint64(0), "", "", false, -1, 0, -1, 0,
		"Native", "Native", "namd", 1, 0, uint64(0), "", "", false, -1, 0, -1, 0)
	// v3 self-describing specs: same name over a different materialized
	// overlay (the shape of two processes binding one variant name to
	// different definitions) and spec-level vs job-level overlays of the
	// same parameter must all key apart.
	f.Add("Native-128TLB", "Native", "namd", 5000, 0, uint64(1), "", "", false, -1, 0, 2, 128,
		"Native-128TLB", "Native", "namd", 5000, 0, uint64(1), "", "", false, -1, 0, 2, 256)
	f.Add("Native-128TLB", "Native", "namd", 5000, 0, uint64(1), "", "", false, 2, 128, -1, 0,
		"Native-128TLB", "Native", "namd", 5000, 0, uint64(1), "", "", false, -1, 0, 2, 128)

	f.Fuzz(func(t *testing.T,
		name1, base1, wls1 string, refs1, warmup1 int, seed1 uint64, het1, pol1 string, uni1 bool, pIdx1, pVal1, sIdx1, sVal1 int,
		name2, base2, wls2 string, refs2, warmup2 int, seed2 uint64, het2, pol2 string, uni2 bool, pIdx2, pVal2, sIdx2, sVal2 int) {
		j1 := fuzzJob(name1, base1, wls1, refs1, warmup1, seed1, het1, pol1, uni1, pIdx1, pVal1, sIdx1, sVal1)
		j2 := fuzzJob(name2, base2, wls2, refs2, warmup2, seed2, het2, pol2, uni2, pIdx2, pVal2, sIdx2, sVal2)
		c := &Cache{}

		// Stability: the key is a pure function — recomputing it cannot
		// drift (this is what lets concurrent sweeps share a directory).
		k1, k2 := c.Key(j1), c.Key(j2)
		if again := c.Key(j1); again != k1 {
			t.Fatalf("Key not stable: %s then %s for %+v", k1, again, j1)
		}

		// Injectivity/identity: keys agree exactly when the canonical JSON
		// does. Marshal cannot fail for plain-data jobs.
		b1, err := json.Marshal(j1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := json.Marshal(j2)
		if err != nil {
			t.Fatal(err)
		}
		if same := bytes.Equal(b1, b2); same != (k1 == k2) {
			t.Fatalf("key equality diverged from canonical JSON equality:\njson1=%s\njson2=%s\nkey1=%s key2=%s",
				b1, b2, k1, k2)
		}
	})
}

// TestJobKeyParamOrderInsensitive pins the overlay-order half of the key
// contract directly: setting the same parameter overlays in different
// orders yields the same Job, the same canonical JSON, and the same key.
func TestJobKeyParamOrderInsensitive(t *testing.T) {
	names := system.ParamNames()
	if len(names) < 2 {
		t.Skip("need two parameters")
	}
	a, b := names[0], names[1]
	mk := func(first, second string) Job {
		j := Job{Spec: system.MustSpec("Native"), Workloads: []string{"mcf"}, Refs: 1000}
		if err := j.Params.Set(first, 128); err != nil {
			t.Fatal(err)
		}
		if err := j.Params.Set(second, 256); err != nil {
			t.Fatal(err)
		}
		return j
	}
	// Same (name, value) pairs, set in both orders.
	j1 := mk(a, b)
	j2 := Job{Spec: system.MustSpec("Native"), Workloads: []string{"mcf"}, Refs: 1000}
	if err := j2.Params.Set(b, 256); err != nil {
		t.Fatal(err)
	}
	if err := j2.Params.Set(a, 128); err != nil {
		t.Fatal(err)
	}
	c := &Cache{}
	if c.Key(j1) != c.Key(j2) {
		t.Errorf("overlay set order changed the cache key")
	}
}

// TestJobKeyBundleOrderSensitive pins the bundle-order half: a permuted
// multiprogrammed bundle assigns workloads to different cores, which is a
// different experiment and must miss, not hit.
func TestJobKeyBundleOrderSensitive(t *testing.T) {
	c := &Cache{}
	j1 := Job{Spec: system.MustSpec("Native"), Workloads: []string{"mcf", "graph500"}, Refs: 1000}
	j2 := Job{Spec: system.MustSpec("Native"), Workloads: []string{"graph500", "mcf"}, Refs: 1000}
	if c.Key(j1) == c.Key(j2) {
		t.Errorf("permuted bundle produced the same cache key")
	}
}

// TestJobKeySurvivesJSONRoundTrip pins the v3 self-describing contract:
// marshalling a job and unmarshalling it back — the exact trip a job
// takes over the dist wire and into a cache entry — reproduces the
// canonical JSON and the cache key byte for byte, including jobs whose
// resolved spec carries a non-zero parameter overlay on top of which a
// job-level overlay sits.
func TestJobKeySurvivesJSONRoundTrip(t *testing.T) {
	jobs := []Job{
		{Spec: system.MustSpec("Native"), Workloads: []string{"namd"}, Refs: 1000, Seed: 1},
		{Spec: &system.Spec{Name: "RoundTrip-Variant", Base: "VBI-Full",
			Params: system.Params{L2TLBEntries: 256, PWCEntries: 64}},
			Workloads: []string{"mcf", "graph500"}, Refs: 2000, Seed: 3,
			Params: system.Params{L2TLBLatency: 9}},
		{Workloads: []string{"sphinx3"}, HeteroMem: "PCM-DRAM", Policy: "VBI", Refs: 1500},
	}
	c := &Cache{}
	for _, j := range jobs {
		b, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("%s: marshal: %v", j.Describe(), err)
		}
		var back Job
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: unmarshal %s: %v", j.Describe(), b, err)
		}
		b2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Errorf("%s: canonical JSON changed across a round trip:\nbefore: %s\nafter:  %s",
				j.Describe(), b, b2)
		}
		if c.Key(j) != c.Key(back) {
			t.Errorf("%s: cache key changed across a JSON round trip", j.Describe())
		}
	}
}

// FuzzCacheEntry writes arbitrary bytes at a job's cache path. Get must
// never panic, and it may serve a hit only for a well-formed entry of
// that job: the current Version, a stored job with the same canonical
// JSON, and one result per workload. Everything else is a miss, never a
// result the matrix would silently print.
func FuzzCacheEntry(f *testing.F) {
	jobs := []Job{
		{Spec: system.MustSpec("Native"), Workloads: []string{"namd"}, Refs: 1000, Seed: 1},
		{Spec: system.MustSpec("VBI-Full"), Workloads: []string{"namd", "sjeng"}, Refs: 2000},
		{Workloads: []string{"sphinx3"}, HeteroMem: "PCM-DRAM", Policy: "VBI", Refs: 1500},
	}
	for i, j := range jobs {
		c := &Cache{Dir: f.TempDir()}
		res := make([]system.RunResult, len(j.Workloads))
		for k := range res {
			res[k] = system.RunResult{System: "s", Workload: j.Workloads[k], IPC: 1.5, Cycles: 1000}
		}
		if err := c.Put(j, res); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(c.path(c.Key(j)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, uint8(i))
		f.Add(b[:len(b)/2], uint8(i))
		f.Add(bytes.Replace(b, []byte(Version), []byte("vbi-harness-v2"), 1), uint8(i))
		f.Add(b, uint8(i+1)) // another job's entry at this job's key
		var e entry
		if err := json.Unmarshal(b, &e); err != nil {
			f.Fatal(err)
		}
		e.Results = e.Results[:len(e.Results)-1]
		short, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(short, uint8(i))
	}
	f.Add([]byte(`null`), uint8(0))
	f.Add([]byte(`{"version":"`+Version+`","job":null,"results":null}`), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		j := jobs[int(which)%len(jobs)]
		c := &Cache{Dir: t.TempDir()}
		if err := os.WriteFile(c.path(c.Key(j)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ok := c.Get(j)

		var e entry
		wellFormed := json.Unmarshal(data, &e) == nil && e.Version == Version &&
			len(e.Results) == len(j.Workloads)
		if wellFormed {
			want, _ := json.Marshal(j)
			got, err := json.Marshal(e.Job)
			wellFormed = err == nil && bytes.Equal(want, got)
		}
		switch {
		case ok && !wellFormed:
			t.Fatalf("malformed entry served as a hit with %d results:\n%q", len(res), data)
		case !ok && wellFormed:
			t.Fatalf("well-formed entry read as a miss:\n%q", data)
		case ok && !reflect.DeepEqual(res, e.Results):
			t.Fatalf("hit returned %+v, entry holds %+v", res, e.Results)
		}
	})
}
