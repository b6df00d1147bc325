package obs

import (
	"fmt"
	"testing"
)

func TestSLOHistogramQuantilesAndExemplars(t *testing.T) {
	h := NewSLOHistogram()
	// 100 observations spread evenly over 1..100 ms.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i)*0.001, fmt.Sprintf("job-%d", i))
	}
	s := h.Stat()
	if s.P50 < 0.040 || s.P50 > 0.060 {
		t.Fatalf("p50 = %v, want ~0.050", s.P50)
	}
	if s.P99 < 0.090 || s.P99 > 0.110 {
		t.Fatalf("p99 = %v, want ~0.100", s.P99)
	}
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// The slowest non-empty bucket is (0.05, 0.1]; its exemplar must be
	// the last observation that landed there (100 ms = job-100).
	if s.SlowestBucket != "0.1" || s.Exemplar != "job-100" {
		t.Fatalf("slowest = %q exemplar = %q, want 0.1 / job-100", s.SlowestBucket, s.Exemplar)
	}
	if len(s.Buckets) == 0 {
		t.Fatal("no buckets in snapshot")
	}
	for _, b := range s.Buckets {
		if b.Count > 0 && b.Exemplar == "" {
			t.Fatalf("bucket le=%s has %d observations but no exemplar", b.LE, b.Count)
		}
	}
}

func TestSLOHistogramOverflowBucket(t *testing.T) {
	h := NewSLOHistogram(0.01, 0.1)
	h.Observe(5, "slow-job")
	h.Observe(7, "slower-job")
	s := h.Stat()
	if s.SlowestBucket != "+Inf" || s.Exemplar != "slower-job" {
		t.Fatalf("overflow: slowest = %q exemplar = %q", s.SlowestBucket, s.Exemplar)
	}
	// The +Inf bucket's quantile answers with the observed max, not Inf.
	if s.P99 != 7 {
		t.Fatalf("p99 in overflow = %v, want max 7", s.P99)
	}
}

func TestSLOHistogramNilSafe(t *testing.T) {
	var h *SLOHistogram
	h.Observe(1, "x")
	if s := h.Stat(); s.Count != 0 || s.P50 != 0 || s.Buckets != nil {
		t.Fatalf("nil stat = %+v", s)
	}
}
