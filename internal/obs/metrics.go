package obs

import (
	"math"
	"strings"
	"sync"
)

// Registry holds named counters, gauges, and histograms. Instruments are
// created on first use and identified by name plus optional label pairs,
// rendered canonically as name{k=v,...}. All methods are safe on a nil
// *Registry: they return nil instruments, whose methods also do nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// descs keeps the structured (name, label pairs) identity behind each
	// rendered key, so exporters with their own syntax (Prometheus) don't
	// have to re-parse the canonical name{k=v,...} form.
	descs map[string]metricDesc
}

// metricDesc is the structured identity of one instrument.
type metricDesc struct {
	name   string
	labels []string // alternating key, value
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		descs:    make(map[string]metricDesc),
	}
}

// metricKey renders name{k=v,...} with labels in given order (callers pass
// literal pairs, so order is stable).
func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing int64.
type Counter struct {
	mu sync.Mutex
	v  int64
}

// Add increments the counter by n. Safe on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.v += n
	c.mu.Unlock()
}

// Inc adds one. Safe on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a last-write-wins float64.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores v. Safe on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// SetMax stores v only if it exceeds the current value (high-water marks).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if v > g.v {
		g.v = v
	}
	g.mu.Unlock()
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram accumulates a distribution: count, sum, min, max, and sparse
// power-of-two buckets (bucket i counts observations in [2^i, 2^(i+1))).
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets map[int]int64
}

// Observe records one sample. Safe on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if h.buckets == nil {
		h.buckets = make(map[int]int64)
	}
	h.buckets[bucketOf(v)]++
}

// bucketOf maps v to its power-of-two bucket exponent; non-positive
// values share a sentinel bucket below every real one.
func bucketOf(v float64) int {
	if v <= 0 {
		return math.MinInt32
	}
	return int(math.Floor(math.Log2(v)))
}

// Counter returns (creating if needed) the named counter. Nil registry
// returns a nil counter, which absorbs Adds.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
		r.descs[k] = metricDesc{name: name, labels: labels}
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
		r.descs[k] = metricDesc{name: name, labels: labels}
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
		r.descs[k] = metricDesc{name: name, labels: labels}
	}
	return h
}
