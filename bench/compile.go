package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/templates"
)

// compileInst is the compile_cold workload: every op builds the Large CNN
// template and compiles it on an empty plan cache. No kernel runs.
type compileInst struct {
	spec gpu.Spec
	want *expectedFile
	// passes are Engine.Pipeline()'s passes built by hand, so the traced
	// op can time each one; set-up fails if the engine's list moves.
	passes []compiler.Pass
	// last is the most recent artifact; finish() verifies and simulates it.
	last *core.Compiled

	// Trace-only IR sizes, one sample per traced op.
	nodesAfterSplit, planSteps []float64
}

// passLayer names the span (and so the per-layer metric) of each pass.
var passLayer = map[string]string{
	"schedule-bind":      "compiler.schedule_bind",
	"split":              "split.apply",
	"validate":           "graph.validate",
	"schedule:heuristic": "sched.heuristic",
	"residency":          "sched.residency",
	"verify":             "sched.verify",
}

func buildLargeCNN() (*graph.Graph, error) {
	g, _, err := templates.CNN(templates.LargeCNN(640, 480))
	return g, err
}

func setupCompile(want *expectedFile) (*compileInst, error) {
	c := &compileInst{
		spec: gpu.TeslaC870(),
		want: want,
		passes: []compiler.Pass{
			compiler.ScheduleBindPass{}, compiler.SplitPass{}, compiler.ValidatePass{},
			compiler.HeuristicPass{}, compiler.ResidencyPass{}, compiler.VerifyPass{},
		},
	}
	var names []string
	for _, p := range c.passes {
		if passLayer[p.Name()] == "" {
			return nil, fmt.Errorf("pass %q has no layer name", p.Name())
		}
		names = append(names, p.Name())
	}
	if engine := core.NewEngine(core.Config{Device: c.spec}).PassNames(); !reflect.DeepEqual(engine, names) {
		return nil, fmt.Errorf("traced pass list %v is not Engine.Pipeline() %v", names, engine)
	}
	for i := 0; i < 3; i++ { // warm-up
		if _, _, err := c.op(0, i, nil); err != nil {
			return nil, err
		}
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	runtime.GC()
	return c, nil
}

func (c *compileInst) op(_, i int, tr *tracer) (float64, opStats, error) {
	var (
		ms   float64
		plan *sched.Plan
		err  error
	)
	if tr == nil {
		ms, plan, err = c.plainOp()
	} else {
		ms, plan, err = c.tracedOp(i, tr)
	}
	if err != nil {
		return 0, opStats{}, err
	}
	if err := c.want.CompileCold.check("compile_cold plan", factsOfPlan(plan)); err != nil {
		return 0, opStats{}, err
	}
	// The plan equals the committed one, so its modeled time does too;
	// finish() simulates the last artifact to hold that to account.
	return ms, c.want.CompileCold.stats(), nil
}

func (c *compileInst) plainOp() (float64, *sched.Plan, error) {
	t0 := time.Now()
	g, err := buildLargeCNN()
	if err != nil {
		return 0, nil, err
	}
	svc := core.NewService(core.WithDevice(c.spec))
	cc, hit, err := svc.Compile(context.Background(), g)
	ms := msSince(t0)
	if err != nil {
		return 0, nil, err
	}
	if hit {
		return 0, nil, fmt.Errorf("compile_cold: plan cache hit on an empty cache")
	}
	if n := len(g.Nodes); n != c.want.CompileCold.Nodes {
		return 0, nil, fmt.Errorf("compile_cold: template has %d nodes, bench/expected.json has %d", n, c.want.CompileCold.Nodes)
	}
	c.last = cc
	return ms, cc.Plan, nil
}

// call times f as a span under parent (-1 for a root) together with its
// allocation count, and hands f the span's id for its own children.
// ReadMemStats rather than runtime/metrics: it flushes the allocation
// caches, so the count is exact.
func call(tr *tracer, name string, op, parent int, f func(id int) error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := tr.begin(name, op, parent)
	err := f(id)
	tr.end(id)
	runtime.ReadMemStats(&m1)
	tr.setAllocs(id, m1.Mallocs-m0.Mallocs)
	return err
}

// tracedOp does what Service.Compile does on a miss, one public call at a
// time: build, cache key (the fingerprint), clone, then each pass on one
// Compilation. The root span's self time is what is left of the op.
func (c *compileInst) tracedOp(i int, tr *tracer) (float64, *sched.Plan, error) {
	var comp *compiler.Compilation
	t0 := time.Now()
	err := call(tr, "core.compile_other", i, -1, func(root int) error {
		var g *graph.Graph
		if err := call(tr, "templates.build", i, root, func(int) (err error) {
			g, err = buildLargeCNN()
			return err
		}); err != nil {
			return err
		}
		svc := core.NewService(core.WithDevice(c.spec))
		_ = call(tr, "graph.fingerprint", i, root, func(int) error {
			_ = svc.CacheKey(g)
			return nil
		})
		capacity := svc.Engine().Capacity()
		comp = &compiler.Compilation{Device: c.spec, Capacity: capacity, SplitTarget: capacity}
		_ = call(tr, "graph.clone", i, root, func(int) error {
			comp.Graph = g.Clone()
			return nil
		})
		for _, p := range c.passes {
			if err := call(tr, passLayer[p.Name()], i, root, func(int) error {
				return p.Run(comp, nil)
			}); err != nil {
				return fmt.Errorf("pass %s: %w", p.Name(), err)
			}
			if p.Name() == "split" {
				c.nodesAfterSplit = append(c.nodesAfterSplit, float64(len(comp.Graph.Nodes)))
			}
		}
		return nil
	})
	ms := msSince(t0)
	if err != nil {
		return 0, nil, err
	}
	if n := len(comp.Graph.Nodes); n != c.want.CompileCold.NodesAfterSplit {
		return 0, nil, fmt.Errorf("compile_cold: %d nodes after split, bench/expected.json has %d", n, c.want.CompileCold.NodesAfterSplit)
	}
	c.planSteps = append(c.planSteps, float64(len(comp.Plan.Steps)))
	return ms, comp.Plan, nil
}

// after runs the compile trace's side measurements once per traced block:
// the warm Service.Compile and the coverage rows (partitioned compile, PB
// solve, CUDA emission), none of which any workload's op calls.
func (c *compileInst) after(block int, tr *tracer) error {
	op := -1 - block
	ctx := context.Background()
	svc := core.NewService(core.WithDevice(c.spec))
	g, err := buildLargeCNN()
	if err != nil {
		return err
	}
	if _, _, err := svc.Compile(ctx, g); err != nil {
		return err
	}
	for r := 0; r < 5; r++ {
		// A server rebuilds the template per request, so the hit is
		// looked up with a fresh, equal graph.
		g, err := buildLargeCNN()
		if err != nil {
			return err
		}
		if err := call(tr, "core.cache_hit", op, -1, func(int) error {
			_, hit, err := svc.Compile(ctx, g)
			if err == nil && !hit {
				err = fmt.Errorf("warm Service.Compile missed")
			}
			return err
		}); err != nil {
			return err
		}
	}

	specs := []gpu.Spec{gpu.TeslaC870(), gpu.GeForce8800GTX()}
	pg, _, err := templates.CNN(templates.SmallCNN(6400, 4800))
	if err != nil {
		return err
	}
	var pc *core.PartitionedCompiled
	if err := call(tr, "compiler.partition", op, -1, func(int) (err error) {
		pc, err = core.NewEngine(core.Config{Device: specs[0]}).CompilePartitioned(ctx, pg, specs)
		return err
	}); err != nil {
		return err
	}
	cov := c.want.Coverage
	if pc.Makespan != cov.PartitionMakespan || pc.CutFloats != cov.PartitionCutFloats {
		return fmt.Errorf("partition: makespan %v cut %d floats, bench/expected.json has %v and %d",
			pc.Makespan, pc.CutFloats, cov.PartitionMakespan, cov.PartitionCutFloats)
	}
	var fig6 *experiments.Fig6Result
	if err := call(tr, "pb.solve", op, -1, func(int) (err error) {
		fig6, err = experiments.Fig6(4, 0)
		return err
	}); err != nil {
		return err
	}
	if fig6.OptimalUnits != cov.Fig6OptimalUnits {
		return fmt.Errorf("pb: optimum %d units, bench/expected.json has %d", fig6.OptimalUnits, cov.Fig6OptimalUnits)
	}
	return call(tr, "codegen.cuda", op, -1, func(int) error {
		if len(c.last.GenerateCUDA("bench")) == 0 {
			return fmt.Errorf("codegen: empty CUDA source")
		}
		return nil
	})
}

// layers fills the compile group of the per-layer metrics: for every span
// name, the median self time and self allocations over its spans.
func (c *compileInst) layers(tr *tracer, m map[string]float64) {
	for name, l := range byLayer(tr.spans) {
		m[name+"_ms"] = median(l.selfMS)
		m[name+"_allocs"] = median(l.selfAllocs)
	}
	m["graph.nodes_after_split"] = median(c.nodesAfterSplit)
	m["sched.plan_steps"] = median(c.planSteps)
}

func (c *compileInst) finish() error {
	if c.last == nil {
		return fmt.Errorf("compile_cold: no artifact to verify")
	}
	if err := sched.Verify(c.last.Graph, c.last.Plan, c.last.Capacity); err != nil {
		return fmt.Errorf("compile_cold: sched.Verify: %w", err)
	}
	rep, err := c.last.Simulate(context.Background())
	if err != nil {
		return fmt.Errorf("compile_cold: Simulate: %w", err)
	}
	return c.want.CompileCold.check("compile_cold simulate", factsOfReport(rep))
}

func (c *compileInst) close() {}

func (c *compileInst) opSpan() string { return "core.compile_other" }
