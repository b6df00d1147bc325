package obs

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// HistStat is an encodable histogram snapshot.
type HistStat struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Min     float64          `json:"min"`
	Max     float64          `json:"max"`
	Mean    float64          `json:"mean"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Stat returns a snapshot (zero value for nil).
func (h *Histogram) Stat() HistStat {
	if h == nil {
		return HistStat{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistStat{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	if len(h.buckets) > 0 {
		s.Buckets = make(map[string]int64, len(h.buckets))
		for e, n := range h.buckets {
			if e == math.MinInt32 {
				s.Buckets["le_0"] = n
				continue
			}
			s.Buckets[fmt.Sprintf("lt_2^%+03d", e+1)] = n
		}
	}
	return s
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	r.Counter("h2d.bytes", "cause", "initial_load").Add(100)
	r.Counter("h2d.bytes", "cause", "initial_load").Add(50)
	r.Counter("h2d.bytes", "cause", "eviction_refetch").Inc()
	if v := r.Counter("h2d.bytes", "cause", "initial_load").Value(); v != 150 {
		t.Fatalf("labeled counter = %d, want 150", v)
	}
	if v := r.Counter("h2d.bytes", "cause", "eviction_refetch").Value(); v != 1 {
		t.Fatalf("other label leaked: %d", v)
	}

	g := r.Gauge("peak")
	g.Set(5)
	g.SetMax(3) // lower: ignored
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("gauge = %v, want 9", g.Value())
	}

	h := r.Histogram("kernel.seconds", "op", "conv")
	for _, v := range []float64{0.5, 1, 2, 4, 0} {
		h.Observe(v)
	}
	s := h.Stat()
	if s.Count != 5 || s.Min != 0 || s.Max != 4 || s.Sum != 7.5 {
		t.Fatalf("hist stat = %+v", s)
	}
	if s.Buckets["le_0"] != 1 {
		t.Fatalf("non-positive sample bucket = %+v", s.Buckets)
	}
}

func TestMetricKey(t *testing.T) {
	if k := metricKey("a", nil); k != "a" {
		t.Fatalf("bare key = %q", k)
	}
	if k := metricKey("a", []string{"x", "1", "y", "2"}); k != "a{x=1,y=2}" {
		t.Fatalf("labeled key = %q", k)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("b").Add(2)
		r.Counter("a").Add(1)
		r.Gauge("g").Set(3.5)
		r.Histogram("h").Observe(1)
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := build()
	for i := 0; i < 5; i++ {
		if got := build(); got != first {
			t.Fatalf("WritePrometheus not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
	// Families sorted by name, whatever their kind.
	var types []string
	for _, line := range strings.Split(first, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	if want := []string{"a counter", "b counter", "g gauge", "h histogram"}; !slices.Equal(types, want) {
		t.Fatalf("families = %q, want %q:\n%s", types, want, first)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(1)
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Gauge("g").SetMax(1)
	r.Histogram("h").Observe(1)
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 || r.Histogram("h").Stat().Count != 0 {
		t.Fatal("nil registry instruments must read zero")
	}
}
