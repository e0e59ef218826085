package dist

import (
	"io"
	"sync"

	"vbi/internal/harness"
	"vbi/internal/obs"
)

// workerMetrics is the worker's exposition state, rendered on
// PathMetrics. Counters are cumulative over the process lifetime; the
// in-flight gauge tracks jobs currently executing. Rendering is
// deterministic (fixed family order, sorted label values), so two
// scrapes of the same state are byte-identical.
type workerMetrics struct {
	mu         sync.Mutex
	inFlight   int64
	shards     int64
	jobsSim    int64
	jobsCached int64
	phases     obs.PhaseCounts
	jobSeconds *obs.Histogram
}

func (m *workerMetrics) hist() *obs.Histogram {
	// Lazy under mu: Worker is a plain struct literal in the daemon and
	// the tests, with no constructor to hook.
	if m.jobSeconds == nil {
		m.jobSeconds = obs.NewHistogram(obs.LatencyBuckets()...)
	}
	return m.jobSeconds
}

func (m *workerMetrics) shardStart(jobs int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shards++
	m.inFlight += int64(jobs)
}

func (m *workerMetrics) shardEnd(jobs int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight -= int64(jobs)
}

// observeJob accounts one completed job: simulated-vs-cached, its wall
// time into the latency histogram, and its phase breakdown.
func (m *workerMetrics) observeJob(res harness.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if res.Cached {
		m.jobsCached++
	} else {
		m.jobsSim++
	}
	if t := res.Timing; t != nil {
		m.phases = m.phases.Add(t.Phases)
		if !t.Cached {
			m.hist().Observe(t.Wall().Seconds())
		}
	}
}

// write renders the full exposition. Families, in order:
//
//	vbiworker_in_flight_jobs            gauge
//	vbiworker_shards_total              counter
//	vbiworker_jobs_total{result=...}    counter (cached | simulated)
//	vbiworker_phase_events_total{phase=...} counter (sorted phase names)
//	vbiworker_job_seconds               histogram (obs.LatencyBuckets)
//	vbiworker_job_seconds_quantile{quantile=...} gauge (estimates)
func (m *workerMetrics) write(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	obs.WriteFamily(w, "vbiworker_in_flight_jobs", "Jobs currently executing on the local pool.", "gauge",
		[]obs.Sample{obs.S(m.inFlight)})
	obs.WriteFamily(w, "vbiworker_shards_total", "Shard requests accepted since process start.", "counter",
		[]obs.Sample{obs.S(m.shards)})
	obs.WriteFamily(w, "vbiworker_jobs_total", "Jobs completed since process start, by result source.", "counter",
		[]obs.Sample{
			obs.S(m.jobsCached, obs.L("result", "cached")),
			obs.S(m.jobsSim, obs.L("result", "simulated")),
		})
	// Sorted phase order, spelled out rather than ranged from a map so
	// the exposition order is pinned at compile time.
	obs.WriteFamily(w, "vbiworker_phase_events_total", "Per-phase simulation events across completed jobs.", "counter",
		[]obs.Sample{
			obs.S(m.phases.Cache, obs.L("phase", "cache")),
			obs.S(m.phases.DRAM, obs.L("phase", "dram")),
			obs.S(m.phases.PWC, obs.L("phase", "pwc")),
			obs.S(m.phases.TLB, obs.L("phase", "tlb")),
			obs.S(m.phases.Walk, obs.L("phase", "walk")),
		})
	snap := m.hist().Snapshot()
	obs.WriteHistogram(w, "vbiworker_job_seconds", "Wall-clock seconds per simulated job (cache hits excluded).", nil, snap)
	obs.WriteFamily(w, "vbiworker_job_seconds_quantile", "Estimated job-latency quantiles from the histogram.", "gauge",
		obs.QuantileSamples(snap, []float64{0.5, 0.9, 0.99}))
}
