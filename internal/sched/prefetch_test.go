package sched

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/split"
	"repro/internal/templates"
)

func prefetchFixture(t *testing.T) (*graph.Graph, *Plan, int64) {
	t.Helper()
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 64, ImageW: 48, KernelSize: 5, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	capacity := int64(9000)
	if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
		t.Fatal(err)
	}
	plan, err := Heuristic(g, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return g, plan, capacity
}

// residencyProfile recomputes device residency after each step.
func residencyProfile(p *Plan) []int64 {
	out := make([]int64, len(p.Steps))
	var cur int64
	for i, s := range p.Steps {
		switch s.Kind {
		case StepH2D:
			cur += s.Buf.Size()
		case StepFree:
			cur -= s.Buf.Size()
		case StepLaunch:
			for _, b := range s.Node.OutputBuffers() {
				cur += b.Size()
			}
		}
		out[i] = cur
	}
	return out
}

func TestPrefetchPreservesSemantics(t *testing.T) {
	_, plan, capacity := prefetchFixture(t)
	pre := PrefetchH2D(plan, capacity)

	// Same multiset of steps, same transfer volume, same launches.
	if len(pre.Steps) != len(plan.Steps) {
		t.Fatalf("step count changed: %d vs %d", len(pre.Steps), len(plan.Steps))
	}
	if pre.TotalTransferFloats() != plan.TotalTransferFloats() {
		t.Fatal("transfer volume changed")
	}
	h1, d1, f1, l1 := plan.Counts()
	h2, d2, f2, l2 := pre.Counts()
	if h1 != h2 || d1 != d2 || f1 != f2 || l1 != l2 {
		t.Fatal("step kind counts changed")
	}
	// Launch order unchanged.
	var a, b []int
	for _, s := range plan.Steps {
		if s.Kind == StepLaunch {
			a = append(a, s.Node.ID)
		}
	}
	for _, s := range pre.Steps {
		if s.Kind == StepLaunch {
			b = append(b, s.Node.ID)
		}
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("launch order changed")
		}
	}
}

func TestPrefetchHoistsWithinCapacity(t *testing.T) {
	_, plan, capacity := prefetchFixture(t)
	pre := PrefetchH2D(plan, capacity)
	for i, r := range residencyProfile(pre) {
		if r > capacity {
			t.Fatalf("step %d residency %d exceeds capacity %d", i, r, capacity)
		}
	}
	if pre.PeakFloats > capacity {
		t.Fatalf("peak %d exceeds capacity", pre.PeakFloats)
	}
	// With a roomier budget, transfers must actually move earlier
	// (the sum of H2D step indices strictly decreases).
	roomy := PrefetchH2D(plan, capacity*2)
	idxSum := func(p *Plan) int {
		sum := 0
		for i, s := range p.Steps {
			if s.Kind == StepH2D {
				sum += i
			}
		}
		return sum
	}
	if idxSum(roomy) >= idxSum(plan) {
		t.Fatalf("prefetch did not hoist any transfer (index sums %d vs %d)",
			idxSum(roomy), idxSum(plan))
	}
}

func TestPrefetchNeverCrossesSameBuffer(t *testing.T) {
	_, plan, capacity := prefetchFixture(t)
	pre := PrefetchH2D(plan, capacity)
	// For every buffer, the subsequence of steps touching it must be
	// identical to the original (hoisting only crosses unrelated steps).
	sub := func(p *Plan, id int) []StepKind {
		var out []StepKind
		for _, s := range p.Steps {
			if s.Buf != nil && s.Buf.ID == id {
				out = append(out, s.Kind)
			}
			if s.Node != nil {
				for _, b := range s.Node.Buffers() {
					if b.ID == id {
						out = append(out, s.Kind)
						break
					}
				}
			}
		}
		return out
	}
	seen := map[int]bool{}
	for _, s := range plan.Steps {
		if s.Buf == nil || seen[s.Buf.ID] {
			continue
		}
		seen[s.Buf.ID] = true
		a, b := sub(plan, s.Buf.ID), sub(pre, s.Buf.ID)
		if len(a) != len(b) {
			t.Fatalf("buffer %d: touch count changed", s.Buf.ID)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("buffer %d: touch order changed: %v vs %v", s.Buf.ID, a, b)
			}
		}
	}
}

func TestPrefetchTightCapacityNoOp(t *testing.T) {
	_, plan, _ := prefetchFixture(t)
	// With zero headroom above the original peak, nothing can hoist past a
	// point that would raise residency; the plan must stay valid.
	pre := PrefetchH2D(plan, plan.PeakFloats)
	for i, r := range residencyProfile(pre) {
		if r > plan.PeakFloats {
			t.Fatalf("step %d residency %d exceeds original peak", i, r)
		}
	}
}

// TestPrefetchH2DAllocBudget bounds what the pass allocates on the
// executor benchmarks' arena plan (6 553 steps, 854 H2D): the step copy,
// the residency profile and the plan, whatever the plan's length. A
// residency replay or a buffer list per hoisted copy fails it.
func TestPrefetchH2DAllocBudget(t *testing.T) {
	p, capacity := prefetchArenaPlan(t)
	if n := testing.AllocsPerRun(3, func() { PrefetchH2D(p, capacity*9/10) }); n > 3 {
		t.Fatalf("PrefetchH2D allocates %.0f objects on a %d-step plan; budget 3", n, len(p.Steps))
	}
}
