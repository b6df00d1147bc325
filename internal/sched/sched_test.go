package sched

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/split"
	"repro/internal/templates"
)

func fig3(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := templates.EdgeDetectFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func orderByNames(t *testing.T, g *graph.Graph, names ...string) []*graph.Node {
	t.Helper()
	var out []*graph.Node
	for _, nm := range names {
		found := false
		for _, n := range g.Nodes {
			if n.Name == nm {
				out = append(out, n)
				found = true
			}
		}
		if !found {
			t.Fatalf("node %q not found", nm)
		}
	}
	return out
}

// Fig. 3's two illustrative schedules of the split edge-detection
// template. The paper reports 15 vs 8 transfer units; with the paper's own
// latest-time-of-use + eager-deletion transfer scheduler the gap appears
// at a 4-unit capacity: the breadth-leaning schedule (a) needs 12 units
// (16 under a naive FIFO policy) while the depth-first schedule (b) needs
// exactly the paper's 8.
func TestFig3ScheduleComparison(t *testing.T) {
	g := fig3(t)
	a := orderByNames(t, g, "C1", "C2", "R1'", "R1''", "R2'", "R2''", "max1", "max2")
	b := orderByNames(t, g, "C1", "C2", "R1'", "R2'", "max1", "R1''", "R2''", "max2")

	pa, err := ScheduleTransfers(g, a, Options{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := ScheduleTransfers(g, b, Options{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := pa.TotalTransferFloats(); got != 12 {
		t.Fatalf("schedule (a) = %d units, want 12", got)
	}
	if got := pb.TotalTransferFloats(); got != 8 {
		t.Fatalf("schedule (b) = %d units, want 8 (paper's figure)", got)
	}
	// Naive FIFO without eager deletion widens the gap.
	pn, err := ScheduleTransfers(g, a, Options{Capacity: 4, Policy: FIFO, NoEagerFree: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := pn.TotalTransferFloats(); got != 16 {
		t.Fatalf("naive schedule (a) = %d units, want 16", got)
	}
}

// At the paper's stated 5-unit capacity our transfer scheduler (which IS
// the paper's §3.3.1 algorithm) already reduces both schedules to 6 units:
// input (2) + outputs (2) + one spill round-trip (2).
func TestFig3Capacity5(t *testing.T) {
	g := fig3(t)
	for _, names := range [][]string{
		{"C1", "C2", "R1'", "R1''", "R2'", "R2''", "max1", "max2"},
		{"C1", "C2", "R1'", "R2'", "max1", "R1''", "R2''", "max2"},
	} {
		p, err := ScheduleTransfers(g, orderByNames(t, g, names...), Options{Capacity: 5})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.TotalTransferFloats(); got != 6 {
			t.Fatalf("%v = %d units, want 6", names, got)
		}
		if p.PeakFloats > 5 {
			t.Fatalf("peak %d exceeds capacity", p.PeakFloats)
		}
	}
}

func TestDepthFirstOrderIsTopo(t *testing.T) {
	g := fig3(t)
	order, err := DepthFirstOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTopoOrder(order) {
		t.Fatal("DFS order is not topological")
	}
	// Depth-first property: max1 must run before the second subtree's
	// remaps (the whole first subtree is scheduled before the sibling).
	pos := map[string]int{}
	for i, n := range order {
		pos[n.Name] = i
	}
	if pos["max1"] > pos["R1''"] {
		t.Fatalf("not depth-first: max1 at %d after R1'' at %d", pos["max1"], pos["R1''"])
	}
}

func TestDepthFirstHeuristicMatchesExactOnFig3(t *testing.T) {
	g := fig3(t)
	h, err := Heuristic(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	best, evaluated, err := ExactSearch{Capacity: 4}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if evaluated == 0 {
		t.Fatal("exact search evaluated nothing")
	}
	if h.TotalTransferFloats() != best.TotalTransferFloats() {
		t.Fatalf("heuristic %d != exact optimum %d",
			h.TotalTransferFloats(), best.TotalTransferFloats())
	}
	if best.TotalTransferFloats() != 8 {
		t.Fatalf("exact optimum = %d, want 8", best.TotalTransferFloats())
	}
}

func TestBFSAndRandomOrders(t *testing.T) {
	g := fig3(t)
	bfs, err := BFSOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTopoOrder(bfs) {
		t.Fatal("BFS order not topological")
	}
	for seed := int64(0); seed < 5; seed++ {
		r, err := RandomTopoOrder(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsTopoOrder(r) {
			t.Fatalf("random order (seed %d) not topological", seed)
		}
	}
}

// TestRandomTopoOrderReproducible: a seed names one order. The Small CNN
// fans every input plane out to a dozen convolutions, so a consumer list
// in map order would reshuffle the ready list from call to call.
func TestRandomTopoOrderReproducible(t *testing.T) {
	g, _, err := templates.CNN(templates.SmallCNN(64, 48))
	if err != nil {
		t.Fatal(err)
	}
	first, err := RandomTopoOrder(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := RandomTopoOrder(g, 7)
		if err != nil {
			t.Fatal(err)
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("rerun %d: position %d is %s, first run had %s", i, j, again[j], first[j])
			}
		}
	}
	other, err := RandomTopoOrder(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(other, first) {
		t.Fatal("seeds 7 and 8 give the same order")
	}
}

func TestBaselinePlan(t *testing.T) {
	g := fig3(t)
	p, err := Baseline(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Every operator copies all inputs in and all outputs out:
	// C1: 2+2, C2: 2+2, four remaps: 1+1 each, two max: 2+1 each = 22.
	if got := p.TotalTransferFloats(); got != 22 {
		t.Fatalf("baseline = %d units, want 22", got)
	}
	h2d, d2h, free, launch := p.Counts()
	if launch != 8 {
		t.Fatalf("launches = %d", launch)
	}
	if h2d == 0 || d2h == 0 || free == 0 {
		t.Fatal("baseline must have transfers and frees")
	}
	// Baseline refuses nodes that exceed capacity outright.
	if _, err := Baseline(g, 3); err == nil {
		t.Fatal("baseline must be infeasible at capacity 3")
	}
}

func TestLowerBound(t *testing.T) {
	g := fig3(t)
	// Im (2 units in) + E' + E'' (2 units out).
	if got := LowerBound(g); got != 4 {
		t.Fatalf("lower bound = %d, want 4", got)
	}
}

func TestLowerBoundEdgeTemplate(t *testing.T) {
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 1000, ImageW: 1000, KernelSize: 16, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 1: 2,000,512 floats for the 1000x1000 edge template.
	if got := LowerBound(g); got != 2000512 {
		t.Fatalf("lower bound = %d, want 2000512", got)
	}
}

// Paper Table 1, rows 1: the 1000x1000 edge template fits both GPUs, so
// the optimized plan transfers exactly the lower bound while the baseline
// moves 13,000,512 floats.
func TestEdgeTemplateTable1SmallImage(t *testing.T) {
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 1000, ImageW: 1000, KernelSize: 16, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	capacity := int64(1536) << 20 >> 2 // 1.5 GB in floats
	bl, err := Baseline(g, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if got := bl.TotalTransferFloats(); got != 13000512 {
		t.Fatalf("baseline = %d floats, want 13000512 (paper Table 1)", got)
	}
	opt, err := Heuristic(g, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.TotalTransferFloats(); got != 2000512 {
		t.Fatalf("optimized = %d floats, want 2000512 (paper Table 1)", got)
	}
}

func TestScheduleTransfersRejectsBadInput(t *testing.T) {
	g := fig3(t)
	order, _ := g.TopoSort()
	if _, err := ScheduleTransfers(g, order, Options{Capacity: 0}); err == nil {
		t.Fatal("zero capacity must error")
	}
	if _, err := ScheduleTransfers(g, order[1:], Options{Capacity: 5}); err == nil {
		t.Fatal("partial order must error")
	}
	rev := make([]*graph.Node, len(order))
	for i, n := range order {
		rev[len(order)-1-i] = n
	}
	if _, err := ScheduleTransfers(g, rev, Options{Capacity: 5}); err == nil {
		t.Fatal("non-topological order must error")
	}
}

func TestScheduleTransfersInfeasibleNode(t *testing.T) {
	g := graph.New()
	in := g.NewBuffer("in", graph.Shape{Rows: 10, Cols: 10})
	in.IsInput = true
	out := g.NewBuffer("out", graph.Shape{Rows: 10, Cols: 10})
	out.IsOutput = true
	g.MustAddNode("t", ops.NewTanh(), []graph.Arg{graph.SingleArg(in)}, graph.SingleArg(out))
	order, _ := g.TopoSort()
	if _, err := ScheduleTransfers(g, order, Options{Capacity: 100}); err == nil ||
		!strings.Contains(err.Error(), "split") {
		t.Fatalf("want infeasibility error mentioning split, got %v", err)
	}
}

// Plan-validity property: for random topological orders and capacities,
// the produced plan (1) never exceeds capacity, (2) launches every node
// exactly once, and (3) ships every template output to the host.
func TestPlanValidityProperty(t *testing.T) {
	g := fig3(t)
	f := func(seed int64, capRaw uint8) bool {
		capacity := int64(4 + int(capRaw)%10)
		order, err := RandomTopoOrder(g, seed)
		if err != nil {
			return false
		}
		p, err := ScheduleTransfers(g, order, Options{Capacity: capacity})
		if err != nil {
			return false
		}
		if p.PeakFloats > capacity {
			return false
		}
		launches := 0
		for _, s := range p.Steps {
			if s.Kind == StepLaunch {
				launches++
			}
		}
		return launches == len(g.Nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Belady never moves more data than LRU or FIFO on the Fig. 3 family
// across capacities (it is the optimal single-size policy).
func TestBeladyDominatesProperty(t *testing.T) {
	g := fig3(t)
	orders := [][]string{
		{"C1", "C2", "R1'", "R1''", "R2'", "R2''", "max1", "max2"},
		{"C1", "C2", "R1'", "R2'", "max1", "R1''", "R2''", "max2"},
	}
	for _, names := range orders {
		order := orderByNames(t, g, names...)
		for capacity := int64(4); capacity <= 12; capacity++ {
			belady, err := ScheduleTransfers(g, order, Options{Capacity: capacity, Policy: Belady})
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range []EvictPolicy{LRU, FIFO} {
				other, err := ScheduleTransfers(g, order, Options{Capacity: capacity, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				if belady.TotalTransferFloats() > other.TotalTransferFloats() {
					t.Fatalf("capacity %d: belady %d > %s %d", capacity,
						belady.TotalTransferFloats(), pol, other.TotalTransferFloats())
				}
			}
		}
	}
}

func TestPolicyAndStepKindStrings(t *testing.T) {
	if Belady.String() != "latest-time-of-use" || LRU.String() != "lru" || FIFO.String() != "fifo" {
		t.Fatal("policy strings wrong")
	}
	if EvictPolicy(99).String() == "" || StepKind(99).String() == "" {
		t.Fatal("unknown enum strings empty")
	}
	for _, k := range []StepKind{StepH2D, StepD2H, StepFree, StepLaunch} {
		if k.String() == "" {
			t.Fatal("step kind string empty")
		}
	}
}

func TestPlanString(t *testing.T) {
	g := fig3(t)
	p, err := Heuristic(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"plan:", "LAUNCH", "H2D", "FREE"} {
		if !strings.Contains(s, want) {
			t.Fatalf("plan string missing %q", want)
		}
	}
}

func TestExactSearchGuards(t *testing.T) {
	g, _, err := templates.CNN(templates.CNNConfig{
		Name: "toolarge", ImageH: 8, ImageW: 8, InPlanes: 3,
		Layers: []templates.CNNLayer{{Kind: templates.LayerConv, OutPlanes: 3, KernelSize: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) <= 12 {
		t.Skipf("graph too small for guard test: %d nodes", len(g.Nodes))
	}
	if _, _, err := (ExactSearch{Capacity: 1 << 20}).Run(g); err == nil {
		t.Fatal("exact search must refuse large graphs")
	}
}

func TestVerifyAcceptsAllPlanners(t *testing.T) {
	g := fig3(t)
	h, err := Heuristic(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, h, 5); err != nil {
		t.Fatalf("heuristic plan rejected: %v", err)
	}
	b, err := Baseline(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, b, 5); err != nil {
		t.Fatalf("baseline plan rejected: %v", err)
	}
	// Prefetched plan verifies under the prefetch budget.
	pre := PrefetchH2D(h, 8)
	if err := Verify(g, pre, 8); err != nil {
		t.Fatalf("prefetched plan rejected: %v", err)
	}
}

func TestVerifyRejectsCorruption(t *testing.T) {
	g := fig3(t)
	plan, err := Heuristic(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Drop a step of each kind and expect rejection (dropping a SYNC or a
	// FREE of a dead buffer is harmless only if residency stays bounded;
	// dropping H2D/LAUNCH must always fail).
	drop := func(kind StepKind) *Plan {
		out := &Plan{Order: plan.Order}
		dropped := false
		for _, s := range plan.Steps {
			if !dropped && s.Kind == kind {
				dropped = true
				continue
			}
			out.Steps = append(out.Steps, s)
		}
		return out
	}
	if err := Verify(g, drop(StepH2D), 5); err == nil {
		t.Fatal("missing H2D must be rejected")
	}
	if err := Verify(g, drop(StepLaunch), 5); err == nil {
		t.Fatal("missing launch must be rejected")
	}
	// Capacity violation.
	if err := Verify(g, plan, 3); err == nil {
		t.Fatal("tight capacity must be rejected")
	}
	// Duplicate launch.
	found := false
	for i, s := range plan.Steps {
		if s.Kind == StepLaunch {
			var d Plan
			d.Steps = append(append([]Step{}, plan.Steps[:i+1]...), plan.Steps[i:]...)
			if err := Verify(g, &d, 5); err == nil {
				t.Fatal("duplicated launch must be rejected")
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no launch step found")
	}
}

func TestGreedyMemoryAwareOrder(t *testing.T) {
	g := fig3(t)
	order, err := GreedyMemoryAwareOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTopoOrder(order) {
		t.Fatal("greedy order not topological")
	}
	// It must schedule within capacity and match the DFS optimum on the
	// Fig. 3 instance (8 units at capacity 4).
	plan, err := ScheduleTransfers(g, order, Options{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalTransferFloats() != 8 {
		t.Fatalf("greedy order cost = %d, want 8", plan.TotalTransferFloats())
	}
}

// On deeply split edge templates the greedy order must land near the
// depth-first one and far below BFS (the paper's "scope for improvement"
// remark: both orders account for memory, unlike BFS).
func TestGreedyOrderBeatsBFSUnderPressure(t *testing.T) {
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 200, ImageW: 200, KernelSize: 16, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	capacity := int64(30000)
	if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
		t.Fatal(err)
	}
	costOf := func(order []*graph.Node) int64 {
		p, err := ScheduleTransfers(g, order, Options{Capacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		return p.TotalTransferFloats()
	}
	greedy, err := GreedyMemoryAwareOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := BFSOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	dfs, err := DepthFirstOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	gc, bc, dc := costOf(greedy), costOf(bfs), costOf(dfs)
	if gc >= bc {
		t.Fatalf("greedy %d should beat BFS %d", gc, bc)
	}
	if gc > dc*3/2 {
		t.Fatalf("greedy %d should be within 1.5x of DFS %d", gc, dc)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	g := fig3(t)
	plan, err := Heuristic(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(strings.NewReader(buf.String()), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Steps) != len(plan.Steps) || back.PeakFloats != plan.PeakFloats {
		t.Fatal("round trip changed plan structure")
	}
	for i := range plan.Steps {
		a, b := plan.Steps[i], back.Steps[i]
		if a.Kind != b.Kind {
			t.Fatalf("step %d kind changed", i)
		}
		if (a.Buf == nil) != (b.Buf == nil) || (a.Buf != nil && a.Buf.ID != b.Buf.ID) {
			t.Fatalf("step %d buffer changed", i)
		}
		if (a.Node == nil) != (b.Node == nil) || (a.Node != nil && a.Node.ID != b.Node.ID) {
			t.Fatalf("step %d node changed", i)
		}
	}
	// The deserialized plan still verifies and has the same cost.
	if err := Verify(g, back, 5); err != nil {
		t.Fatal(err)
	}
	if back.TotalTransferFloats() != plan.TotalTransferFloats() {
		t.Fatal("cost changed")
	}
}

func TestReadPlanRejectsGarbage(t *testing.T) {
	g := fig3(t)
	cases := []string{
		"not json",
		`{"steps":[{"kind":"WIBBLE"}]}`,
		`{"steps":[{"kind":"H2D"}]}`,
		`{"steps":[{"kind":"H2D","buf":9999}]}`,
		`{"steps":[{"kind":"LAUNCH","node":9999}]}`,
		`{"order":[12345]}`,
	}
	for i, c := range cases {
		if _, err := ReadPlan(strings.NewReader(c), g); err == nil {
			t.Fatalf("case %d accepted: %q", i, c)
		}
	}
}

// A plan written for one graph loads against a Clone (IDs preserved) and
// still verifies — the serialization contract auto-tuning and codegen
// consumers rely on.
func TestPlanJSONAcrossClone(t *testing.T) {
	g := fig3(t)
	plan, err := Heuristic(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	clone := g.Clone()
	back, err := ReadPlan(strings.NewReader(buf.String()), clone)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(clone, back, 5); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyHardenedGuards(t *testing.T) {
	g := fig3(t)
	plan, err := Heuristic(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(nil, plan, 5); err == nil {
		t.Fatal("nil graph must be rejected")
	}
	if err := Verify(g, nil, 5); err == nil {
		t.Fatal("nil plan must be rejected")
	}
	if err := Verify(g, plan, 0); err == nil {
		t.Fatal("zero capacity must be rejected")
	}
	if err := Verify(g, plan, -5); err == nil {
		t.Fatal("negative capacity must be rejected")
	}
	corrupt := func(mut func(steps []Step) []Step) *Plan {
		return &Plan{Steps: mut(append([]Step(nil), plan.Steps...)), Order: plan.Order}
	}
	if err := Verify(g, corrupt(func(s []Step) []Step {
		return append([]Step{{Kind: StepH2D}}, s...)
	}), 5); err == nil {
		t.Fatal("nil transfer buffer must be rejected")
	}
	if err := Verify(g, corrupt(func(s []Step) []Step {
		return append([]Step{{Kind: StepLaunch}}, s...)
	}), 5); err == nil {
		t.Fatal("nil launch node must be rejected")
	}
	// A plan referencing buffers or nodes outside this graph is not
	// executable against it, even if the step sequence looks legal.
	if err := Verify(g, corrupt(func(s []Step) []Step {
		for i := range s {
			if s[i].Kind == StepH2D {
				s[i].Buf = &graph.Buffer{ID: 9999, Name: "foreign"}
				break
			}
		}
		return s
	}), 5); err == nil {
		t.Fatal("foreign buffer must be rejected")
	}
	if err := Verify(g, corrupt(func(s []Step) []Step {
		for i := range s {
			if s[i].Kind == StepLaunch {
				s[i].Node = &graph.Node{ID: 9999, Name: "foreign"}
				break
			}
		}
		return s
	}), 5); err == nil {
		t.Fatal("foreign node must be rejected")
	}
}
