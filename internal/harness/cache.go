package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"vbi/internal/system"
)

// Version invalidates every cached result when the simulators change in a
// way that alters outputs for an identical job spec. Bump it whenever a
// timing model, workload profile or default constant moves, and whenever
// the Job schema changes shape (v2: the Params overlay joined the
// canonical job JSON; v3: jobs became self-describing — the resolved
// system.Spec replaced the spec name, so v2 entries keyed on names can
// never be confused with v3 entries keyed on materialized specs).
const Version = "vbi-harness-v3"

// Cache is an on-disk result store keyed by a SHA-256 of the canonical
// job JSON plus Version. Entries are written atomically (temp file +
// rename), so concurrent workers and concurrent sweeps sharing a directory
// are safe: the worst race is two workers simulating the same job and one
// rename winning, which is harmless because both computed identical
// results.
type Cache struct {
	// Dir holds one JSON file per cached job. Created on first Put.
	Dir string

	hits, misses atomic.Int64
}

// entry is the stored envelope. The job spec is kept alongside the
// results so Get can reject hash collisions and hand-edited files.
//
//vbi:wire
type entry struct {
	Version string             `json:"version"`
	Job     Job                `json:"job"`
	Results []system.RunResult `json:"results"`
}

// Key returns the cache key for a job: SHA-256 over Version plus the
// canonical job JSON. Jobs are self-describing — the resolved spec (base
// kind + materialized overlay) is part of that JSON — so the key needs no
// registry lookup, and two processes that bind the same variant name to
// different overlays produce different keys by construction.
func (c *Cache) Key(j Job) string {
	b, err := json.Marshal(j)
	if err != nil {
		// Job is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("harness: marshal job: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(Version))
	h.Write([]byte{'\n'})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.Dir, key+".json")
}

// Get returns the cached results for a job, if present and valid. An
// entry that does not parse, was stored under another Version or for
// another job, or does not hold one result per workload is a miss.
func (c *Cache) Get(j Job) ([]system.RunResult, bool) {
	b, err := os.ReadFile(c.path(c.Key(j)))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil || e.Version != Version {
		c.misses.Add(1)
		return nil, false
	}
	// Reject collisions/corruption: the stored spec must round-trip to the
	// same canonical JSON as the requested one, and every job runs one
	// core per workload, so a well-formed entry holds one result each.
	want, _ := json.Marshal(j)
	got, _ := json.Marshal(e.Job)
	if !bytes.Equal(want, got) || len(e.Results) != len(j.Workloads) {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.Results, true
}

// Put stores a job's results.
func (c *Cache) Put(j Job, results []system.RunResult) error {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(entry{Version: Version, Job: j, Results: results}, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.Dir, ".put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(c.Key(j)))
}

// Counters reports in-process hits and misses since the Cache was
// created. (Disk-wide occupancy is Stats.)
func (c *Cache) Counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// CacheStats summarizes the on-disk contents of a cache directory.
type CacheStats struct {
	// Entries counts the entry files, readable or not.
	Entries int `json:"entries"`
	// Bytes is their total size.
	Bytes int64 `json:"bytes"`
	// Versions breaks Entries down by stored schema version; files that
	// fail to parse count under "corrupt". Any key other than the current
	// Version is dead weight — those entries can never hit again.
	Versions map[string]int `json:"versions"`
	// VersionBytes is the per-version byte breakdown, same keys as
	// Versions. It is what lets cache tooling report how much a prune of
	// stale entries would reclaim before deleting anything.
	VersionBytes map[string]int64 `json:"version_bytes"`
}

// Stale sums the entries and bytes that a Prune(keep) would remove:
// everything stored under a different schema version, corrupt files
// included.
func (st CacheStats) Stale(keep string) (entries int, bytes int64) {
	for v, n := range st.Versions {
		if v != keep {
			entries += n
			bytes += st.VersionBytes[v]
		}
	}
	return entries, bytes
}

// Stats scans the cache directory. A missing directory is an empty cache.
func (c *Cache) Stats() (CacheStats, error) {
	st := CacheStats{Versions: map[string]int{}, VersionBytes: map[string]int64{}}
	err := c.scan(func(path string, size int64, version string) error {
		st.Entries++
		st.Bytes += size
		st.Versions[version]++
		st.VersionBytes[version] += size
		return nil
	})
	return st, err
}

// Prune deletes every entry whose stored schema version differs from
// keep (normally the current Version), including unreadable files —
// neither can ever hit again. It returns the number of files removed.
func (c *Cache) Prune(keep string) (int, error) {
	removed := 0
	err := c.scan(func(path string, size int64, version string) error {
		if version == keep {
			return nil
		}
		if err := os.Remove(path); err != nil {
			return err
		}
		removed++
		return nil
	})
	return removed, err
}

// scan visits every entry file with its size and stored version
// ("corrupt" when the envelope does not parse).
func (c *Cache) scan(visit func(path string, size int64, version string) error) error {
	ents, err := os.ReadDir(c.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, de := range ents {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		path := filepath.Join(c.Dir, de.Name())
		info, err := de.Info()
		if err != nil {
			return err
		}
		version := "corrupt"
		if b, err := os.ReadFile(path); err == nil {
			var e struct {
				Version string `json:"version"`
			}
			if json.Unmarshal(b, &e) == nil && e.Version != "" {
				version = e.Version
			}
		}
		if err := visit(path, info.Size(), version); err != nil {
			return err
		}
	}
	return nil
}

// Len counts the entries currently on disk.
func (c *Cache) Len() (int, error) {
	ents, err := os.ReadDir(c.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}
