package sched

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/templates"
)

// IdentifyUnits partitions the operator order into offload units (§3.1):
// linear producer→consumer chains are fused into one unit when the fused
// memory footprint still fits the capacity and the chain is "private" —
// the producer's only dependent is the consumer and the consumer's only
// dependency is the producer — so fusing can never create a cyclic unit
// dependency. maxOps bounds the unit length (0 = unlimited).
//
// Per-operator units (the paper's implementation) are the degenerate case;
// coarser units reduce host synchronizations at the cost of footprint.
func IdentifyUnits(g *graph.Graph, order []*graph.Node, capacity int64, maxOps int) [][]*graph.Node {
	deps := g.Deps()
	dependents := invertDeps(g, deps)

	soleDependent := func(n *graph.Node) *graph.Node {
		ds := dependents[n.ID]
		if len(ds) == 1 {
			return ds[0]
		}
		return nil
	}
	soleDep := func(n *graph.Node) *graph.Node {
		ds := deps[n.ID]
		if len(ds) == 1 {
			return ds[0]
		}
		return nil
	}
	footprint := func(nodes []*graph.Node) int64 {
		seen := map[int]bool{}
		var total int64
		for _, n := range nodes {
			for _, b := range n.Buffers() {
				if !seen[b.ID] {
					seen[b.ID] = true
					total += b.Size()
				}
			}
		}
		return total
	}

	pos := make(map[int]int, len(order))
	for i, n := range order {
		pos[n.ID] = i
	}

	var units [][]*graph.Node
	used := make(map[int]bool)
	for _, n := range order {
		if used[n.ID] {
			continue
		}
		unit := []*graph.Node{n}
		used[n.ID] = true
		for {
			last := unit[len(unit)-1]
			next := soleDependent(last)
			if next == nil || used[next.ID] || soleDep(next) != last {
				break
			}
			// The chain must also be contiguous in the given order so the
			// overall unit sequence stays topological.
			if pos[next.ID] != pos[last.ID]+1 {
				break
			}
			if maxOps > 0 && len(unit) >= maxOps {
				break
			}
			cand := append(append([]*graph.Node{}, unit...), next)
			if footprint(cand) > capacity {
				break
			}
			unit = cand
			used[next.ID] = true
		}
		units = append(units, unit)
	}
	return units
}

// FusedHeuristic runs the depth-first order, fuses linear chains into
// offload units, and schedules transfers at unit granularity.
func FusedHeuristic(g *graph.Graph, capacity int64, maxOps int) (*Plan, error) {
	order, err := DepthFirstOrder(g)
	if err != nil {
		return nil, err
	}
	units := IdentifyUnits(g, order, capacity, maxOps)
	return ScheduleUnits(g, units, Options{Capacity: capacity})
}

// linearChain builds in -> tanh -> scale -> scale(1) -> out, a fusable chain.
func linearChain(t *testing.T, rows int) *graph.Graph {
	t.Helper()
	g := graph.New()
	s := graph.Shape{Rows: rows, Cols: 2}
	in := g.NewBuffer("in", s)
	in.IsInput = true
	a := g.NewBuffer("a", s)
	b := g.NewBuffer("b", s)
	out := g.NewBuffer("out", s)
	out.IsOutput = true
	g.MustAddNode("t", ops.NewTanh(), []graph.Arg{graph.SingleArg(in)}, graph.SingleArg(a))
	g.MustAddNode("s", ops.NewScale(2), []graph.Arg{graph.SingleArg(a)}, graph.SingleArg(b))
	g.MustAddNode("c", ops.NewScale(1), []graph.Arg{graph.SingleArg(b)}, graph.SingleArg(out))
	return g
}

// syncCount is the plan's host-GPU synchronizations, one per offload unit.
func syncCount(p *Plan) int {
	n := 0
	for _, s := range p.Steps {
		if s.Kind == StepSync {
			n++
		}
	}
	return n
}

func TestIdentifyUnitsFusesChain(t *testing.T) {
	g := linearChain(t, 8)
	order, err := DepthFirstOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	units := IdentifyUnits(g, order, 1000, 0)
	if len(units) != 1 || len(units[0]) != 3 {
		t.Fatalf("units = %v, want one unit of 3", unitShape(units))
	}
}

func TestIdentifyUnitsRespectsCapacity(t *testing.T) {
	g := linearChain(t, 8)
	order, _ := DepthFirstOrder(g)
	// Each node footprint = 32; fused 3-op unit = 64 floats (4 buffers of
	// 16). Capacity 48 permits only 2-op units (3 buffers = 48).
	units := IdentifyUnits(g, order, 48, 0)
	for _, u := range units {
		if len(u) > 2 {
			t.Fatalf("unit too large for capacity: %v", unitShape(units))
		}
	}
	if len(units) >= 3 {
		t.Fatalf("no fusion happened: %v", unitShape(units))
	}
}

func TestIdentifyUnitsMaxOps(t *testing.T) {
	g := linearChain(t, 8)
	order, _ := DepthFirstOrder(g)
	units := IdentifyUnits(g, order, 1000, 1)
	if len(units) != 3 {
		t.Fatalf("maxOps=1 must disable fusion: %v", unitShape(units))
	}
}

func TestIdentifyUnitsStopsAtFanOut(t *testing.T) {
	// The edge template's conv outputs feed both a remap and the combine:
	// no node has a sole-dependent/sole-dependency chain, so units stay
	// singletons.
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 20, ImageW: 20, KernelSize: 3, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	order, _ := DepthFirstOrder(g)
	units := IdentifyUnits(g, order, 1<<20, 0)
	if len(units) != len(g.Nodes) {
		t.Fatalf("fan-out graph should not fuse: %v", unitShape(units))
	}
}

func TestScheduleUnitsKeepsInternalDataOnGPU(t *testing.T) {
	g := linearChain(t, 8)
	order, _ := DepthFirstOrder(g)
	units := IdentifyUnits(g, order, 1000, 0)
	plan, err := ScheduleUnits(g, units, Options{Capacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Only the template input goes in and the output comes back; the two
	// chain intermediates never cross the bus.
	h2d, d2h := plan.TransferFloats()
	if h2d != 16 || d2h != 16 {
		t.Fatalf("transfers = %d/%d, want 16/16", h2d, d2h)
	}
	// One sync for the fused unit (plus none elsewhere).
	if n := syncCount(plan); n != 1 {
		t.Fatalf("syncs = %d, want 1", n)
	}
	// The per-op schedule has three syncs.
	perOp, err := ScheduleTransfers(g, order, Options{Capacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if n := syncCount(perOp); n != 3 {
		t.Fatalf("per-op syncs = %d, want 3", n)
	}
	// Transfer volume is the same here (residency already avoided copies);
	// the fused unit's win is the sync count.
	if perOp.TotalTransferFloats() != plan.TotalTransferFloats() {
		t.Fatalf("transfer volumes differ: %d vs %d",
			perOp.TotalTransferFloats(), plan.TotalTransferFloats())
	}
}

func TestFusedHeuristicCNN(t *testing.T) {
	g, _, err := templates.CNN(templates.CNNConfig{
		Name: "u", ImageH: 16, ImageW: 8, InPlanes: 2,
		Layers: []templates.CNNLayer{
			{Kind: templates.LayerConv, OutPlanes: 2, KernelSize: 3},
			{Kind: templates.LayerTanh},
			{Kind: templates.LayerSubsample, Factor: 2},
			{Kind: templates.LayerTanh},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := FusedHeuristic(g, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	perOp, err := Heuristic(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if syncCount(fused) >= syncCount(perOp) {
		t.Fatalf("fusion should reduce syncs: %d vs %d", syncCount(fused), syncCount(perOp))
	}
	if fused.TotalTransferFloats() > perOp.TotalTransferFloats() {
		t.Fatalf("fusion increased transfers: %d vs %d",
			fused.TotalTransferFloats(), perOp.TotalTransferFloats())
	}
	// Every node still launches exactly once.
	_, _, _, launches := fused.Counts()
	if launches != len(g.Nodes) {
		t.Fatalf("launches = %d, want %d", launches, len(g.Nodes))
	}
}

func unitShape(units [][]*graph.Node) []int {
	out := make([]int, len(units))
	for i, u := range units {
		out[i] = len(u)
	}
	return out
}
