package pb

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/sched"
	"repro/internal/templates"
)

func chainGraph(t *testing.T, rows int) *graph.Graph {
	t.Helper()
	g := graph.New()
	s := graph.Shape{Rows: rows, Cols: 1}
	in := g.NewBuffer("in", s)
	in.IsInput = true
	mid := g.NewBuffer("mid", s)
	out := g.NewBuffer("out", s)
	out.IsOutput = true
	g.MustAddNode("a", ops.NewTanh(), []graph.Arg{graph.SingleArg(in)}, graph.SingleArg(mid))
	g.MustAddNode("b", ops.NewScale(2), []graph.Arg{graph.SingleArg(mid)}, graph.SingleArg(out))
	return g
}

func TestFormulateChainOptimum(t *testing.T) {
	g := chainGraph(t, 4)
	// Ample memory: optimum is the I/O lower bound (in 4 + out 4 = 8).
	f, err := Formulate(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Minimize(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Sat {
		t.Fatalf("status %v", res.Status)
	}
	if res.Cost != 8 {
		t.Fatalf("cost = %d, want 8 (lower bound)", res.Cost)
	}
	if res.Cost != sched.LowerBound(g) {
		t.Fatalf("cost %d != lower bound %d", res.Cost, sched.LowerBound(g))
	}
	if res.Plan == nil || len(res.Plan.Order) != 2 {
		t.Fatal("plan missing")
	}
}

func TestFormulateTightMemoryForcesSpill(t *testing.T) {
	// Chain with capacity exactly one node footprint: 'mid' must round-trip
	// through the host between the two operators? No — with capacity 8 the
	// two 4-float buffers of each step fit, and mid can stay resident.
	g := chainGraph(t, 4)
	f, err := Formulate(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Minimize(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Sat || res.Cost != 8 {
		t.Fatalf("status %v cost %d, want Sat 8", res.Status, res.Cost)
	}
}

func TestFormulateInfeasible(t *testing.T) {
	g := chainGraph(t, 4)
	// Capacity below any node footprint (8 floats needed).
	f, err := Formulate(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Minimize(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unsat {
		t.Fatalf("status %v, want Unsat", res.Status)
	}
}

// The paper's Fig. 6 result: the PB-optimal schedule of the split edge
// template. At the 4-unit capacity the optimum is the paper's 8 units; at
// 5 units our scheduler family (and the PB optimum) reach 6.
func TestFig3PBOptimum(t *testing.T) {
	g, err := templates.EdgeDetectFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		capacity int64
		want     int64
	}{{4, 8}, {5, 6}, {6, 4}} {
		h, err := sched.Heuristic(g, tc.capacity)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Formulate(g, tc.capacity)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Minimize(h.TotalTransferFloats(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Sat {
			t.Fatalf("capacity %d: status %v", tc.capacity, res.Status)
		}
		if res.Cost != tc.want {
			t.Fatalf("capacity %d: optimum %d, want %d", tc.capacity, res.Cost, tc.want)
		}
		// The heuristic is optimal on this instance (paper cross-check).
		if h.TotalTransferFloats() != res.Cost {
			t.Fatalf("capacity %d: heuristic %d != optimum %d",
				tc.capacity, h.TotalTransferFloats(), res.Cost)
		}
		// PB plan must respect the capacity.
		if res.Plan.PeakFloats > tc.capacity {
			t.Fatalf("capacity %d: peak %d", tc.capacity, res.Plan.PeakFloats)
		}
	}
}

// The PB plan's step accounting must agree with its reported cost.
func TestExtractPlanCostConsistency(t *testing.T) {
	g, err := templates.EdgeDetectFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Formulate(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Minimize(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.TotalTransferFloats() != res.Cost {
		t.Fatalf("plan transfers %d != objective %d",
			res.Plan.TotalTransferFloats(), res.Cost)
	}
	// Exactly one launch per operator, in a valid topological order.
	if !g.IsTopoOrder(res.Plan.Order) {
		t.Fatal("PB order not topological")
	}
}

func TestFormulateBudgetUnknown(t *testing.T) {
	g, err := templates.EdgeDetectFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Formulate(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Minimize(0, 1) // one conflict: cannot even find a model
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Sat && res.Plan == nil {
		t.Fatal("Sat without plan")
	}
}

func TestFormulateValidatesGraph(t *testing.T) {
	g := graph.New()
	orphan := g.NewBuffer("x", graph.Shape{Rows: 2, Cols: 2})
	out := g.NewBuffer("y", graph.Shape{Rows: 2, Cols: 2})
	g.MustAddNode("n", ops.NewTanh(), []graph.Arg{graph.SingleArg(orphan)}, graph.SingleArg(out))
	if _, err := Formulate(g, 100); err == nil {
		t.Fatal("invalid graph must be rejected")
	}
}
