package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-th quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// blockBounds cuts n ops into k contiguous blocks whose sizes differ by at
// most one (the first n%k blocks are the longer ones) and returns each
// block's [start, end).
func blockBounds(n, k int) [][2]int {
	out := make([][2]int, k)
	start := 0
	for b := 0; b < k; b++ {
		size := n / k
		if b < n%k {
			size++
		}
		out[b] = [2]int{start, start + size}
		start += size
	}
	return out
}

// perOp divides a phase total by the ops that produced it; 0 ops give 0,
// so a run that attempted nothing cannot print Inf.
func perOp(total float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}

// spreadPct is (max − min) ÷ median of xs, in percent.
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	return (percentile(xs, 1) - percentile(xs, 0)) / m * 100
}

// span is one timed call into a layer, recorded by the harness around the
// layer's public function. Times are seconds since the tracer started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Op     int     `json:"op"`     // spans of one op share it
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	// Allocs is the heap objects allocated between Start and End. Only
	// the single-threaded compile trace sets it: with two clients the
	// process-wide counter cannot be attributed to one span.
	Allocs uint64 `json:"allocs,omitempty"`
}

// tracer keeps spans in memory; the run writes them out once, at the end.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: time.Since(t.epoch).Seconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

func (t *tracer) setAllocs(id int, n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Allocs = n
}

// add records a span whose duration the program reported itself (a job's
// queue wait and execution time from its Status), ending at end.
func (t *tracer) add(name string, op, parent int, dur, end float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: end - dur, End: end})
}

func (t *tracer) endTime(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].End
}

// selfCost is a span's own share of an interval: its duration and
// allocations minus those of its direct children.
type selfCost struct {
	span
	SelfSeconds float64
	SelfAllocs  float64
}

// selfCosts computes every span's self time (duration − children) and
// self allocations.
func selfCosts(spans []span) []selfCost {
	out := make([]selfCost, len(spans))
	for i, s := range spans {
		out[i] = selfCost{span: s, SelfSeconds: s.End - s.Start, SelfAllocs: float64(s.Allocs)}
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent].SelfSeconds -= s.End - s.Start
			out[s.Parent].SelfAllocs -= float64(s.Allocs)
		}
	}
	return out
}

// layerSamples groups spans by name: one sample per span, self time in ms,
// total duration in ms, and self allocations.
type layerSamples struct{ selfMS, totalMS, selfAllocs []float64 }

func byLayer(spans []span) map[string]*layerSamples {
	out := map[string]*layerSamples{}
	for _, c := range selfCosts(spans) {
		l := out[c.Name]
		if l == nil {
			l = &layerSamples{}
			out[c.Name] = l
		}
		l.selfMS = append(l.selfMS, c.SelfSeconds*1e3)
		l.totalMS = append(l.totalMS, (c.End-c.Start)*1e3)
		l.selfAllocs = append(l.selfAllocs, c.SelfAllocs)
	}
	return out
}

// attributedMS is how much of a traced op its spans account for: over the
// trees rooted at spans named root, the sum per span name of the median
// self time, in ms. Compared with the plain op's median it gives
// harness.unattributed_pct.
func attributedMS(spans []span, root string) float64 {
	inTree := make([]bool, len(spans)) // spans are appended parent first
	self := map[string][]float64{}
	for i, c := range selfCosts(spans) {
		if c.Parent < 0 {
			inTree[i] = c.Name == root
		} else {
			inTree[i] = inTree[c.Parent]
		}
		if inTree[i] {
			self[c.Name] = append(self[c.Name], c.SelfSeconds*1e3)
		}
	}
	var total float64
	for _, xs := range self {
		total += median(xs)
	}
	return total
}
