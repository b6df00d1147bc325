package sched

import (
	"errors"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/split"
	"repro/internal/templates"
)

// partitionSpecs is the paper's two-card pool scaled down so the test
// graph actually needs splitting: C870-class constants with tiny,
// unequal memories.
func partitionSpecs() []gpu.Spec {
	return []gpu.Spec{
		gpu.Custom("mini-A", 3<<20),
		gpu.Custom("mini-B", 2<<20),
	}
}

func partitionGraph(t *testing.T, specs []gpu.Spec) *graph.Graph {
	t.Helper()
	g, _, err := templates.CNN(templates.SmallCNN(512, 384))
	if err != nil {
		t.Fatal(err)
	}
	minCap := specs[0].PlannerCapacity()
	for _, s := range specs[1:] {
		if c := s.PlannerCapacity(); c < minCap {
			minCap = c
		}
	}
	if _, err := split.Apply(g, split.Options{Capacity: minCap}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildPartitionCNN(t *testing.T) {
	specs := partitionSpecs()
	g := partitionGraph(t, specs)
	assign := PartitionAssign(g, specs)
	pp, err := BuildPartition(g, assign, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Every node lands in exactly one part.
	total := 0
	seen := map[int]bool{}
	for _, part := range pp.Parts {
		total += len(part.Plan.Order)
		for _, n := range part.Plan.Order {
			if seen[n.ID] {
				t.Fatalf("node %s scheduled in two parts", n)
			}
			seen[n.ID] = true
		}
		if part.Plan.PeakFloats > part.Capacity {
			t.Errorf("part %s peak %d exceeds capacity %d",
				part.Spec.Name, part.Plan.PeakFloats, part.Capacity)
		}
	}
	if total != len(g.Nodes) {
		t.Fatalf("parts schedule %d nodes, graph has %d", total, len(g.Nodes))
	}

	// The graph is connected across the cut, so there must be cross
	// edges, each pairing a shipped D2H with a staged H2D.
	if len(pp.Edges) == 0 {
		t.Fatal("no cross-device edges in a connected partitioned graph")
	}
	for _, e := range pp.Edges {
		if e.From == e.To {
			t.Fatalf("edge %v joins a part to itself", e)
		}
		from := pp.Parts[e.From].Plan.Steps[e.FromStep]
		to := pp.Parts[e.To].Plan.Steps[e.ToStep]
		if from.Kind != StepD2H || from.Buf.ID != e.Buf.ID {
			t.Fatalf("edge source step %v is not D2H of %s", from, e.Buf)
		}
		if to.Kind != StepH2D || to.Buf.ID != e.Buf.ID {
			t.Fatalf("edge target step %v is not H2D of %s", to, e.Buf)
		}
		if e.Sec <= 0 {
			t.Errorf("edge %v has non-positive duration", e)
		}
	}

	ms, err := pp.Makespan()
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 || math.IsNaN(ms) {
		t.Fatalf("makespan = %g", ms)
	}
}

func TestBuildPartitionRejectsEmptyStripe(t *testing.T) {
	specs := partitionSpecs()
	g := partitionGraph(t, specs)
	assign := make([]int, len(g.Nodes)) // everything on device 0
	_, err := BuildPartition(g, assign, specs, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible for an empty stripe", err)
	}
}

func TestPartitionChainAssignKeepsChainsTogether(t *testing.T) {
	specs := partitionSpecs()
	g := partitionGraph(t, specs)
	assign, ok := PartitionChainAssign(g, specs)
	if !ok {
		t.Fatal("chain assignment declined a branchy CNN graph")
	}
	if len(assign) != len(g.Nodes) {
		t.Fatalf("assignment covers %d of %d nodes", len(assign), len(g.Nodes))
	}
	idx := make(map[int]int, len(g.Nodes))
	counts := make([]int, len(specs))
	for i, n := range g.Nodes {
		if p := assign[i]; p < 0 || p >= len(specs) {
			t.Fatalf("node %s assigned out of range: %d", n, p)
		}
		idx[n.ID] = i
		counts[assign[i]]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Errorf("device %d received no nodes", p)
		}
	}

	// The defining invariant: a buffer with exactly one consumer never
	// crosses devices (its producer and consumer share a part), so the
	// cut holds only fan-out buffers.
	consumers := make(map[int]int)
	for _, n := range g.Nodes {
		for _, b := range n.InputBuffers() {
			consumers[b.ID]++
		}
	}
	prod := g.Producer()
	for _, n := range g.Nodes {
		for _, b := range n.InputBuffers() {
			pn, ok := prod[b.ID]
			if !ok || consumers[b.ID] != 1 || b.IsOutput || (b.Root != nil && b.Root.IsOutput) {
				continue
			}
			if assign[idx[pn.ID]] != assign[idx[n.ID]] {
				t.Fatalf("single-consumer buffer %s crosses devices (%s -> %s)", b, pn, n)
			}
		}
	}

	// On a deep pipeline the chain cut — and with it the joined makespan —
	// must beat earliest-finish placement, which shreds the chains.
	chain, err := BuildPartition(g, assign, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	heft, err := BuildPartition(g, PartitionAssign(g, specs), specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cf, hf := chain.CutFloats(), heft.CutFloats(); cf >= hf {
		t.Errorf("chain cut %d floats not below heft cut %d", cf, hf)
	}
	cm, err := chain.Makespan()
	if err != nil {
		t.Fatal(err)
	}
	hm, err := heft.Makespan()
	if err != nil {
		t.Fatal(err)
	}
	if cm >= hm {
		t.Errorf("chain makespan %g not below heft makespan %g", cm, hm)
	}
	t.Logf("chain: cut=%d makespan=%.3gs; heft: cut=%d makespan=%.3gs",
		chain.CutFloats(), cm, heft.CutFloats(), hm)
}

func TestPartitionChainAssignDeclinesSerialChain(t *testing.T) {
	g := graph.New()
	b := g.NewBuffer("in", graph.Shape{Rows: 8, Cols: 8})
	b.IsInput = true
	for i := 0; i < 5; i++ {
		o := g.NewBuffer("t", graph.Shape{Rows: 8, Cols: 8})
		g.MustAddNode("tanh", ops.NewTanh(),
			[]graph.Arg{graph.SingleArg(b)}, graph.SingleArg(o))
		b = o
	}
	b.IsOutput = true
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := PartitionChainAssign(g, partitionSpecs()); ok {
		t.Fatal("chain assignment accepted a single serial chain it cannot spread")
	}
}

func TestPartitionAssignStripes(t *testing.T) {
	specs := partitionSpecs()
	g := partitionGraph(t, specs)
	assign := PartitionAssign(g, specs)
	if len(assign) != len(g.Nodes) {
		t.Fatalf("assignment covers %d of %d nodes", len(assign), len(g.Nodes))
	}
	counts := make([]int, len(specs))
	for i, p := range assign {
		if p < 0 || p >= len(specs) {
			t.Fatalf("node %s assigned out of range: %d", g.Nodes[i], p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Errorf("device %d received no nodes", p)
		}
		t.Logf("device %d: %d nodes", p, c)
	}
}
