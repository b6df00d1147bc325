package gpu

import (
	"testing"
)

func TestTraceSpanTracksMaxEnd(t *testing.T) {
	tr := &Trace{}
	if tr.Span() != 0 {
		t.Fatalf("empty trace span = %v, want 0", tr.Span())
	}
	// Out-of-order ends: the span must be the max End, not the last.
	tr.Add(Event{Kind: EventH2D, Engine: "dma", Start: 0, End: 2})
	tr.Add(Event{Kind: EventKernel, Engine: "compute", Start: 1, End: 5})
	tr.Add(Event{Kind: EventD2H, Engine: "dma", Start: 2, End: 3})
	if got := tr.Span(); got != 5 {
		t.Fatalf("span = %v, want 5", got)
	}
	// Cross-check against a full scan.
	var scan float64
	for _, e := range tr.Events {
		if e.End > scan {
			scan = e.End
		}
	}
	if tr.Span() != scan {
		t.Fatalf("incremental span %v != scanned span %v", tr.Span(), scan)
	}
}
