package obs

import (
	"sync"
)

// Histogram is a fixed-bucket histogram safe for concurrent Observe.
// Buckets are chosen at construction and never change, so Observe is
// allocation-free (a mutex and a linear scan over a few bounds — the
// bucket count is small by design). Snapshot copies the state out for
// rendering and quantile estimation, so scrapes never block observers
// for longer than the copy.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; implicit +Inf after the last
	counts []uint64  // len(bounds)+1; counts[len(bounds)] is the +Inf bucket
	sum    float64
	total  uint64
}

// NewHistogram builds a histogram over ascending upper bounds. An
// implicit +Inf bucket catches everything past the last bound.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// LatencyBuckets is the shared bucket layout for job and shard
// latencies, in seconds: 1ms to 2m, roughly ×2.5 per step. One layout
// everywhere keeps every latency histogram comparable and is the
// layout DESIGN.md §8 documents.
func LatencyBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}
}

// Observe records one value.
//
//vbi:hotpath
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state,
// detached from the live counters.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // per-bucket (not cumulative); last entry is +Inf
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram out under the lock.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: make([]float64, len(h.bounds)),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum,
		Count:  h.total,
	}
	copy(s.Bounds, h.bounds)
	copy(s.Counts, h.counts)
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding the target rank, the standard
// fixed-bucket estimate. An empty histogram returns 0; ranks landing in
// the +Inf bucket return the last finite bound (the estimate cannot
// exceed what the layout can resolve).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if rank <= next && c > 0 {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			return lo + (hi-lo)*((rank-cum)/float64(c))
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}
