package sweepd

import (
	"io"
	"sort"
	"sync"

	"vbi/internal/dist"
	"vbi/internal/obs"
)

// metrics is the daemon's counter set, rendered on PathMetrics in the
// Prometheus text exposition format through the shared internal/obs
// writer. Counters are cumulative over the daemon process lifetime;
// queue depths, fleet size and sweep states are gauges computed at
// scrape time from live state. Rendering is deterministic — fixed family
// order, sorted label values — so two scrapes of the same state are
// byte-identical.
type metrics struct {
	mu              sync.Mutex
	jobsCompleted   int64
	jobsFromCache   int64 // completions served by the daemon's cache pre-pass
	sweepsSubmitted int64
	sweepsDone      int64
	sweepsFailed    int64
	sweepsCancelled int64
}

func (m *metrics) jobDone(fromCache bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsCompleted++
	if fromCache {
		m.jobsFromCache++
	}
}

func (m *metrics) sweepEvent(state string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch state {
	case StateQueued:
		m.sweepsSubmitted++
	case StateDone:
		m.sweepsDone++
	case StateFailed:
		m.sweepsFailed++
	case StateCancelled:
		m.sweepsCancelled++
	}
}

// latency summarizes the shard round-trip histogram of every worker
// that has completed a shard, for /status, sorted by worker ID.
func latency(workers []dist.WorkerStats) []WorkerLatency {
	var out []WorkerLatency
	for _, w := range workers {
		if s := w.Seconds; s.Count > 0 {
			out = append(out, WorkerLatency{
				Worker:     w.ID,
				Count:      s.Count,
				P50Seconds: s.Quantile(0.5),
				P90Seconds: s.Quantile(0.9),
				P99Seconds: s.Quantile(0.99),
			})
		}
	}
	return out
}

// perWorker renders one scheduler count as samples, in the scheduler's
// sorted worker order. A worker appears once its count is non-zero.
func perWorker(workers []dist.WorkerStats, count func(dist.WorkerStats) int64) []obs.Sample {
	var out []obs.Sample
	for _, w := range workers {
		if c := count(w); c > 0 {
			out = append(out, obs.S(c, obs.L("worker", w.ID)))
		}
	}
	return out
}

// perSweep renders a per-sweep gauge map as samples sorted by sweep ID.
func perSweep[V int | float64](values map[string]V) []obs.Sample {
	ids := make([]string, 0, len(values))
	for id := range values {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]obs.Sample, len(ids))
	for i, id := range ids {
		out[i] = obs.S(values[id], obs.L("sweep", id))
	}
	return out
}

// WriteMetrics renders the full exposition for one scrape. The caller
// (Server.handleMetrics) passes the live gauges; the counter families
// come from the metrics struct itself.
func (m *metrics) WriteMetrics(w io.Writer, gauges gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	obs.WriteFamily(w, "sweepd_fleet_workers", "Live fleet members.", "gauge",
		[]obs.Sample{obs.S(gauges.workers)})
	obs.WriteFamily(w, "sweepd_fleet_workers_quarantined", "Registered members currently quarantined after failures.", "gauge",
		[]obs.Sample{obs.S(gauges.quarantined)})

	var states []obs.Sample
	for _, st := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		states = append(states, obs.S(gauges.sweepStates[st], obs.L("state", st)))
	}
	obs.WriteFamily(w, "sweepd_sweeps", "Known sweeps by state.", "gauge", states)

	obs.WriteFamily(w, "sweepd_queue_depth_shards", "Pending shards per active sweep.", "gauge",
		perSweep(gauges.queueDepths))
	obs.WriteFamily(w, "sweepd_jobs_queued", "Jobs not yet completed across active sweeps.", "gauge",
		[]obs.Sample{obs.S(gauges.jobsQueued)})
	obs.WriteFamily(w, "sweepd_jobs_in_flight", "Jobs currently dispatched to workers.", "gauge",
		[]obs.Sample{obs.S(gauges.jobsInFlight)})
	obs.WriteFamily(w, "sweepd_sweep_jobs_per_second", "Remote job completion rate per active sweep.", "gauge",
		perSweep(gauges.jobsPerSecond))
	obs.WriteFamily(w, "sweepd_sweep_eta_seconds", "Projected seconds to drain each active sweep at its current rate.", "gauge",
		perSweep(gauges.etaSeconds))

	obs.WriteFamily(w, "sweepd_sweeps_submitted_total", "Sweeps accepted since daemon start.", "counter",
		[]obs.Sample{obs.S(m.sweepsSubmitted)})
	obs.WriteFamily(w, "sweepd_sweeps_completed_total", "Sweeps finished since daemon start.", "counter",
		[]obs.Sample{
			obs.S(m.sweepsDone, obs.L("state", StateDone)),
			obs.S(m.sweepsFailed, obs.L("state", StateFailed)),
			obs.S(m.sweepsCancelled, obs.L("state", StateCancelled)),
		})
	obs.WriteFamily(w, "sweepd_jobs_completed_total", "Jobs completed since daemon start.", "counter",
		[]obs.Sample{obs.S(m.jobsCompleted)})
	obs.WriteFamily(w, "sweepd_jobs_cache_served_total", "Job completions served from the shared result cache.", "counter",
		[]obs.Sample{obs.S(m.jobsFromCache)})

	ws := gauges.workerStats
	obs.WriteFamily(w, "sweepd_shards_dispatched_total", "Shards sent to each worker.", "counter",
		perWorker(ws, func(s dist.WorkerStats) int64 { return s.Dispatched }))
	obs.WriteFamily(w, "sweepd_shards_completed_total", "Shards each worker completed (rate = shard throughput).", "counter",
		perWorker(ws, func(s dist.WorkerStats) int64 { return s.Completed }))
	obs.WriteFamily(w, "sweepd_shard_failures_total", "Failed shard requests per worker.", "counter",
		perWorker(ws, func(s dist.WorkerStats) int64 { return s.Failed }))

	var lat []obs.Sample
	for _, w := range ws {
		if w.Seconds.Count > 0 {
			lat = append(lat, obs.QuantileSamples(w.Seconds, []float64{0.5, 0.9, 0.99}, obs.L("worker", w.ID))...)
		}
	}
	obs.WriteFamily(w, "sweepd_shard_seconds_quantile", "Estimated shard round-trip latency quantiles per worker.", "gauge", lat)

	obs.WriteFamily(w, "sweepd_cache_hits_total", "Result-cache hits in this daemon process.", "counter",
		[]obs.Sample{obs.S(gauges.cacheHits)})
	obs.WriteFamily(w, "sweepd_cache_misses_total", "Result-cache misses in this daemon process.", "counter",
		[]obs.Sample{obs.S(gauges.cacheMisses)})
}

// gauges is the scrape-time snapshot of live state: everything /metrics
// reports that is not a monotonic counter.
type gauges struct {
	workers       int
	quarantined   int
	sweepStates   map[string]int
	queueDepths   map[string]int
	jobsQueued    int
	jobsInFlight  int
	jobsPerSecond map[string]float64
	etaSeconds    map[string]float64
	cacheHits     int64
	cacheMisses   int64
	workerStats   []dist.WorkerStats // the scheduler's per-worker counts
}
