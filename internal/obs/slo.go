package obs

import (
	"fmt"
	"sync"
)

// SLOHistogram is a latency histogram with *fixed* bucket boundaries and
// per-bucket exemplars — the serving layer's SLO instrument. Unlike the
// general Histogram (sparse power-of-two buckets, no identity), an
// SLOHistogram answers two operational questions: "what are p50/p95/p99
// for this workload?" and "which request do I pull a trace for when a
// percentile goes bad?". The exemplar attached to each bucket is the ID
// of the last observation that landed there, so the slowest non-empty
// bucket always links to a retrievable job trace.
//
// All methods are safe on a nil *SLOHistogram and do nothing — the
// disabled fast path, matching the rest of the package.
type SLOHistogram struct {
	mu        sync.Mutex
	bounds    []float64 // ascending upper bounds; implicit +Inf last
	counts    []int64   // len(bounds)+1
	exemplars []string  // last observation ID per bucket
	count     int64
	sum       float64
	max       float64
}

// DefaultSLOBuckets are the fixed latency bounds in seconds: 1ms to 60s,
// roughly logarithmic, the range a simulated-device serving job spans.
func DefaultSLOBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// NewSLOHistogram returns a histogram over the given ascending upper
// bounds (DefaultSLOBuckets when none are given).
func NewSLOHistogram(bounds ...float64) *SLOHistogram {
	if len(bounds) == 0 {
		bounds = DefaultSLOBuckets()
	}
	return &SLOHistogram{
		bounds:    bounds,
		counts:    make([]int64, len(bounds)+1),
		exemplars: make([]string, len(bounds)+1),
	}
}

// Observe records one latency sample (seconds) with the observation's
// identity (a job ID); the exemplar replaces the bucket's previous one.
func (h *SLOHistogram) Observe(v float64, exemplar string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	if exemplar != "" {
		h.exemplars[i] = exemplar
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// quantileLocked returns the q-quantile (0 < q < 1) by linear
// interpolation within the target bucket, the Prometheus
// histogram_quantile convention. Caller holds h.mu.
func (h *SLOHistogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum int64
	for i, n := range h.counts {
		if float64(cum+n) < rank {
			cum += n
			continue
		}
		if i >= len(h.bounds) {
			// +Inf bucket: the max observed is the honest answer.
			return h.max
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if n == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(cum))/float64(n)
	}
	return h.max
}

// SLOBucket is one encodable bucket of an SLOStat.
type SLOBucket struct {
	// LE is the bucket's upper bound in seconds ("+Inf" for the last).
	LE       string `json:"le"`
	Count    int64  `json:"count"`
	Exemplar string `json:"exemplar,omitempty"`
}

// SLOStat is an encodable SLOHistogram snapshot.
type SLOStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// SlowestBucket is the upper bound of the slowest non-empty bucket
	// and Exemplar the ID of the last observation that landed in it —
	// the direct link from a bad percentile to a retrievable trace.
	SlowestBucket string      `json:"slowest_bucket,omitempty"`
	Exemplar      string      `json:"exemplar,omitempty"`
	Buckets       []SLOBucket `json:"buckets,omitempty"`
}

func sloBoundLabel(bounds []float64, i int) string {
	if i >= len(bounds) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", bounds[i])
}

// Stat snapshots the histogram (zero value for nil).
func (h *SLOHistogram) Stat() SLOStat {
	if h == nil {
		return SLOStat{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := SLOStat{
		Count: h.count,
		Sum:   h.sum,
		P50:   h.quantileLocked(0.50),
		P95:   h.quantileLocked(0.95),
		P99:   h.quantileLocked(0.99),
	}
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		le := sloBoundLabel(h.bounds, i)
		s.Buckets = append(s.Buckets, SLOBucket{LE: le, Count: n, Exemplar: h.exemplars[i]})
		s.SlowestBucket, s.Exemplar = le, h.exemplars[i]
	}
	return s
}
