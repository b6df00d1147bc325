package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/sched"
	"repro/internal/split"
)

// randomDAG builds a random operator graph out of library operators:
// a layer of convolutions over the input followed by random elementwise
// combinations, ending in a single combine to the output.
func randomDAG(rng *rand.Rand) (*graph.Graph, Inputs) {
	g := graph.New()
	h := 12 + rng.Intn(12) // 12..23
	w := 8 + rng.Intn(8)   // 8..15
	shape := graph.Shape{Rows: h, Cols: w}
	img := g.NewBuffer("img", shape)
	img.IsInput = true
	in := Inputs{img.ID: randTensor(rng.Int63(), h, w)}

	// Layer 0: 2-4 unary transforms of the input (conv-same or remap).
	n0 := 2 + rng.Intn(3)
	var frontier []*graph.Buffer
	for i := 0; i < n0; i++ {
		out := g.NewBuffer(fmt.Sprintf("l0_%d", i), shape)
		if rng.Intn(2) == 0 {
			k := 3 + 2*rng.Intn(2) // 3 or 5
			if k < h && k < w {
				kb := g.NewBuffer(fmt.Sprintf("k%d", i), graph.Shape{Rows: k, Cols: k})
				kb.IsInput = true
				in[kb.ID] = randTensor(rng.Int63(), k, k)
				g.MustAddNode(fmt.Sprintf("conv%d", i), ops.NewConv2DSame(k, k),
					[]graph.Arg{graph.SingleArg(img), graph.SingleArg(kb)}, graph.SingleArg(out))
				frontier = append(frontier, out)
				continue
			}
		}
		g.MustAddNode(fmt.Sprintf("remap%d", i), ops.NewRemap(rng.Float32()*2-1, 0.1, -5, 5),
			[]graph.Arg{graph.SingleArg(img)}, graph.SingleArg(out))
		frontier = append(frontier, out)
	}

	// 1-3 intermediate elementwise layers combining random frontier pairs.
	depth := 1 + rng.Intn(3)
	for d := 0; d < depth; d++ {
		a := frontier[rng.Intn(len(frontier))]
		b := frontier[rng.Intn(len(frontier))]
		out := g.NewBuffer(fmt.Sprintf("m%d", d), shape)
		var op graph.Operator
		switch rng.Intn(3) {
		case 0:
			op = ops.NewAddN(2)
		case 1:
			op = ops.NewMaxCombine(2)
		default:
			op = ops.NewAbsMaxCombine(2)
		}
		g.MustAddNode(fmt.Sprintf("mix%d", d), op,
			[]graph.Arg{graph.SingleArg(a), graph.SingleArg(b)}, graph.SingleArg(out))
		frontier = append(frontier, out)
	}

	// Final combine of everything still unconsumed into the output.
	final := g.NewBuffer("out", shape)
	final.IsOutput = true
	args := make([]graph.Arg, len(frontier))
	for i, b := range frontier {
		args[i] = graph.SingleArg(b)
	}
	g.MustAddNode("final", ops.NewMaxCombine(len(frontier)), args, graph.SingleArg(final))
	return g, in
}

// The grand integration property: for random operator DAGs and random
// capacities, split → schedule → statically verify → execute on the
// simulated device reproduces the reference result exactly, for every
// planner variant.
func TestRandomPipelineProperty(t *testing.T) {
	f := func(seed int64, capRaw uint16, variant uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g, in := randomDAG(rng)
		want, err := RunReference(g, in)
		if err != nil {
			return false
		}
		// Capacity between the largest unsplittable floor and "everything
		// fits": bias toward pressure.
		total := g.Stats().TotalFloats
		capacity := total/8 + int64(capRaw)%total
		if capacity < 64 {
			capacity = 64
		}
		if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
			// Some capacities are genuinely infeasible (single row can't
			// split further); that's not a failure of the property.
			return true
		}
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: invalid graph: %v", seed, err)
			return false
		}

		var plan *sched.Plan
		switch variant % 3 {
		case 0:
			plan, err = sched.Heuristic(g, capacity)
		case 1:
			plan, err = sched.Baseline(g, capacity)
		default:
			// Fig. 3's naive schedule: Kahn order, FIFO eviction, no
			// eager frees.
			order, oerr := g.TopoSort()
			if oerr != nil {
				return false
			}
			plan, err = sched.ScheduleTransfers(g, order,
				sched.Options{Capacity: capacity, Policy: sched.FIFO, NoEagerFree: true})
		}
		if err != nil {
			t.Logf("seed %d: scheduling failed: %v", seed, err)
			return false
		}
		if err := sched.Verify(g, plan, capacity); err != nil {
			t.Logf("seed %d: verify failed: %v", seed, err)
			return false
		}
		dev := gpu.New(gpu.Custom("prop", capacity*6))
		rep, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: dev})
		if err != nil {
			t.Logf("seed %d: execution failed: %v", seed, err)
			return false
		}
		for id, w := range want {
			if !rep.Outputs[id].AlmostEqual(w, 1e-3) {
				t.Logf("seed %d: result mismatch %v", seed, rep.Outputs[id].MaxAbsDiff(w))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Prefetched plans remain semantically identical: same results, same
// volumes, on random pipelines.
func TestRandomPipelinePrefetchProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, in := randomDAG(rng)
		total := g.Stats().TotalFloats
		capacity := total / 2
		if capacity < 64 {
			capacity = 64
		}
		if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
			return true
		}
		plan, err := sched.Heuristic(g, capacity)
		if err != nil {
			return true
		}
		pre := sched.PrefetchH2D(plan, capacity)
		if err := sched.Verify(g, pre, capacity); err != nil {
			t.Logf("seed %d: prefetched plan invalid: %v", seed, err)
			return false
		}
		dev := gpu.New(gpu.Custom("pre", capacity*6))
		rep, err := Run(context.Background(), g, pre, in, Options{Mode: Materialized, Device: dev})
		if err != nil {
			t.Logf("seed %d: prefetched execution failed: %v", seed, err)
			return false
		}
		want, err := RunReference(g, in)
		if err != nil {
			return false
		}
		for id, w := range want {
			if !rep.Outputs[id].AlmostEqual(w, 1e-3) {
				return false
			}
		}
		return rep.Stats.TotalFloats() == plan.TotalTransferFloats()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
