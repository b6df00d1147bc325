package main

import (
	"math"
	"reflect"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.1, 14}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.1); got != 7 {
		t.Errorf("one sample: got %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample must be NaN, so a layer without samples is not a fast layer")
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestBlockBounds(t *testing.T) {
	got := blockBounds(20, 8)
	want := [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 12}, {12, 14}, {14, 16}, {16, 18}, {18, 20}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("blockBounds(20, 8) = %v, want %v", got, want)
	}
	// Fewer ops than blocks: the tail blocks are empty, none is lost.
	got = blockBounds(2, 8)
	if got[0] != [2]int{0, 1} || got[1] != [2]int{1, 2} || got[7] != [2]int{2, 2} {
		t.Errorf("blockBounds(2, 8) = %v", got)
	}
}

func TestPerOp(t *testing.T) {
	if got := perOp(12, 4); got != 3 {
		t.Errorf("perOp(12, 4) = %v, want 3", got)
	}
	if got := perOp(12, 0); got != 0 {
		t.Errorf("perOp(12, 0) = %v, want 0", got)
	}
}

func TestSpreadPct(t *testing.T) {
	if got := spreadPct([]float64{90, 100, 110}); math.Abs(got-20) > 1e-9 {
		t.Errorf("spreadPct = %v, want 20", got)
	}
}

// Two ops, each a root with two children, one of which has a child of its
// own; plus a side span that belongs to no op.
func TestSelfTimeFromSpans(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Name: "op", Start: 0, End: 10, Allocs: 100},
		{ID: 1, Parent: 0, Op: 0, Name: "build", Start: 0, End: 3, Allocs: 30},
		{ID: 2, Parent: 0, Op: 0, Name: "compile", Start: 3, End: 9, Allocs: 60},
		{ID: 3, Parent: 2, Op: 0, Name: "pass", Start: 4, End: 8, Allocs: 50},
		{ID: 4, Parent: -1, Op: 1, Name: "op", Start: 10, End: 22},
		{ID: 5, Parent: 4, Op: 1, Name: "build", Start: 10, End: 15},
		{ID: 6, Parent: 4, Op: 1, Name: "compile", Start: 15, End: 21},
		{ID: 7, Parent: 6, Op: 1, Name: "pass", Start: 15, End: 17},
		{ID: 8, Parent: -1, Op: -1, Name: "side", Start: 22, End: 30},
	}
	costs := selfCosts(spans)
	wantSelf := []float64{1, 3, 2, 4, 1, 5, 4, 2, 8}
	for i, w := range wantSelf {
		if costs[i].SelfSeconds != w {
			t.Errorf("span %d (%s): self %v s, want %v", i, spans[i].Name, costs[i].SelfSeconds, w)
		}
	}
	if costs[0].SelfAllocs != 10 || costs[2].SelfAllocs != 10 || costs[3].SelfAllocs != 50 {
		t.Errorf("self allocs: op %v compile %v pass %v, want 10 10 50",
			costs[0].SelfAllocs, costs[2].SelfAllocs, costs[3].SelfAllocs)
	}
	layers := byLayer(spans)
	if got := median(layers["pass"].selfMS); got != 3000 {
		t.Errorf("median self time of pass = %v ms, want 3000", got)
	}
	if got := median(layers["compile"].totalMS); got != 6000 {
		t.Errorf("median duration of compile = %v ms, want 6000", got)
	}
	// op 1 + build 4 + compile 3 + pass 3 = 11 s: the median op (11 s) is
	// fully accounted for, and the side span is not counted.
	if got := attributedMS(spans, "op"); got != 11000 {
		t.Errorf("attributedMS = %v, want 11000", got)
	}
}

func TestTracerRecordsParentsAndReportedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", 7, -1)
	tr.end(root)
	end := tr.endTime(root)
	tr.add("exec", 7, root, 0.25, end)
	got := tr.spans[1]
	if got.Parent != root || got.Op != 7 || math.Abs((got.End-got.Start)-0.25) > 1e-12 || got.End != end {
		t.Errorf("reported span = %+v", got)
	}
}
