package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/sched"
	"repro/internal/templates"
	"repro/internal/workload"
)

func buildEdge(t *testing.T, h, w, k int) (*Compiled, exec.Inputs, exec.Outputs, *Engine) {
	t.Helper()
	g, bufs, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: h, ImageW: w, KernelSize: k, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := workload.EdgeInputs(bufs, 1)
	want, err := exec.RunReference(g, in)
	if err != nil {
		t.Fatal(err)
	}
	// A toy device that forces splitting: ~1/3 of the max footprint.
	spec := gpu.Custom("toy", int64(h*w*4*2))
	eng := NewEngine(Config{Device: spec})
	c, err := eng.Compile(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return c, in, want, eng
}

func TestEngineEndToEnd(t *testing.T) {
	c, in, want, eng := buildEdge(t, 40, 32, 5)
	if c.Split.SplitNodes == 0 {
		t.Fatal("expected the toy device to force splitting")
	}
	if c.Plan.PeakFloats > eng.Capacity() {
		t.Fatalf("plan peak %d exceeds capacity %d", c.Plan.PeakFloats, eng.Capacity())
	}
	rep, err := c.Execute(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		if !rep.Outputs[id].AlmostEqual(w, 1e-3) {
			t.Fatalf("output differs by %v", rep.Outputs[id].MaxAbsDiff(w))
		}
	}
	if rep.Stats.TotalFloats() != c.TransferFloats() {
		t.Fatal("stats/plan transfer mismatch")
	}
}

func TestEngineSimulateMatchesExecute(t *testing.T) {
	c, in, _, _ := buildEdge(t, 40, 32, 5)
	repE, err := c.Execute(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	repS, err := c.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if repS.Stats != repE.Stats {
		t.Fatalf("simulate stats %+v != execute stats %+v", repS.Stats, repE.Stats)
	}
}

func TestEnginePlanners(t *testing.T) {
	g, err := templates.EdgeDetectFig3(2)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity of 5 units (unit = 2 floats -> 10 floats -> 40 bytes).
	mk := func(p Planner) *Compiled {
		eng := NewEngine(Config{Device: gpu.Custom("fig3", 4096), Capacity: 10, Planner: p,
			PBMaxConflicts: 500000})
		gg, err := templates.EdgeDetectFig3(2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := eng.Compile(context.Background(), gg)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		return c
	}
	_ = g
	base := mk(BaselinePlanner)
	heur := mk(HeuristicPlanner)
	opt := mk(PBOptimalPlanner)
	if !(opt.TransferFloats() <= heur.TransferFloats()) {
		t.Fatalf("PB %d > heuristic %d", opt.TransferFloats(), heur.TransferFloats())
	}
	if !(heur.TransferFloats() < base.TransferFloats()) {
		t.Fatalf("heuristic %d not better than baseline %d",
			heur.TransferFloats(), base.TransferFloats())
	}
	if opt.PBStatus == 0 && opt.Plan == nil {
		t.Fatal("PB planner produced nothing")
	}
}

func TestEngineRetargeting(t *testing.T) {
	// The same template compiled for the two paper GPUs: the smaller
	// GeForce either splits more or transfers at least as much.
	build := func(spec gpu.Spec, capacity int64) *Compiled {
		g, _, err := templates.EdgeDetect(templates.EdgeConfig{
			ImageH: 64, ImageW: 48, KernelSize: 5, Orientations: 4})
		if err != nil {
			t.Fatal(err)
		}
		s := spec
		eng := NewEngine(Config{Device: s, Capacity: capacity})
		c, err := eng.Compile(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	big := build(gpu.Custom("big", 1<<20), 50000)
	small := build(gpu.Custom("small", 1<<20), 4000)
	// With ample memory the plan hits the I/O lower bound exactly; a
	// constrained device can never beat it (it may match it when the
	// split pipeline is perfectly chunk-wise).
	lbBig := sched.LowerBound(big.Graph)
	if big.TransferFloats() != lbBig {
		t.Fatalf("ample-memory transfers %d != lower bound %d",
			big.TransferFloats(), lbBig)
	}
	if small.Split.SplitNodes == 0 {
		t.Fatal("constrained device should force splitting")
	}
	if small.TransferFloats() < sched.LowerBound(small.Graph) {
		t.Fatalf("transfers %d below lower bound %d",
			small.TransferFloats(), sched.LowerBound(small.Graph))
	}
}

func TestEngineCodegen(t *testing.T) {
	c, _, _, _ := buildEdge(t, 40, 32, 5)
	cu := c.GenerateCUDA("edge")
	if !strings.Contains(cu, "cudaMemcpy") || !strings.Contains(cu, "execute_edge") {
		t.Fatal("CUDA output incomplete")
	}
}

func TestPlannerStrings(t *testing.T) {
	if HeuristicPlanner.String() != "heuristic" ||
		PBOptimalPlanner.String() != "pb-optimal" ||
		BaselinePlanner.String() != "baseline" {
		t.Fatal("planner strings wrong")
	}
}

func TestCapacityOverride(t *testing.T) {
	eng := NewEngine(Config{Device: gpu.TeslaC870()})
	if eng.Capacity() != gpu.TeslaC870().PlannerCapacity() {
		t.Fatal("default capacity wrong")
	}
	eng2 := NewEngine(Config{Device: gpu.TeslaC870(), Capacity: 42})
	if eng2.Capacity() != 42 {
		t.Fatal("override capacity wrong")
	}
}

func TestAutoTuneSplitImproves(t *testing.T) {
	// At dim where the plain heuristic splits only the combine operator
	// and spills intermediates, auto-tuning splits deeper and transfers
	// close to the lower bound.
	build := func(autotune bool) *Compiled {
		g, _, err := templates.EdgeDetect(templates.EdgeConfig{
			ImageH: 120, ImageW: 120, KernelSize: 8, Orientations: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Capacity between max-op footprint (5*14400=72000) and the total
		// (6*14400): only max must split.
		eng := NewEngine(Config{Device: gpu.Custom("t", 1<<20), Capacity: 60000,
			AutoTuneSplit: autotune})
		c, err := eng.Compile(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	plain := build(false)
	tuned := build(true)
	if tuned.TransferFloats() > plain.TransferFloats() {
		t.Fatalf("auto-tune regressed: %d > %d", tuned.TransferFloats(), plain.TransferFloats())
	}
	// The tuned plan must still execute correctly.
	g, bufs, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 120, ImageW: 120, KernelSize: 8, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := workload.EdgeInputs(bufs, 5)
	want, err := exec.RunReference(g, in)
	if err != nil {
		t.Fatal(err)
	}
	// Cloned graphs preserve buffer IDs, so inputs map directly.
	rep, err := tuned.Execute(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		if !rep.Outputs[id].AlmostEqual(w, 1e-3) {
			t.Fatal("auto-tuned plan wrong result")
		}
	}
}

func TestEngineOverlap(t *testing.T) {
	// A C1060-class async device small enough to force chunked splitting.
	spec := gpu.TeslaC1060()
	spec.MemoryBytes = 64 << 10
	build := func(overlap bool) *Compiled {
		g, _, err := templates.EdgeDetect(templates.EdgeConfig{
			ImageH: 64, ImageW: 48, KernelSize: 5, Orientations: 4})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(Config{Device: spec, Overlap: overlap})
		c, err := eng.Compile(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	plain := build(false)
	over := build(true)
	if !over.Overlap || plain.Overlap {
		t.Fatal("Overlap flag wrong")
	}
	repP, err := plain.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	repO, err := over.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if repO.Stats.TotalFloats() != repP.Stats.TotalFloats() {
		t.Fatal("overlap changed transfer volume")
	}
	if repO.Stats.TotalTime() > repP.Stats.TotalTime()+1e-12 {
		t.Fatalf("overlap slower: %v vs %v", repO.Stats.TotalTime(), repP.Stats.TotalTime())
	}
	// Results still correct in materialized mode.
	g, bufs, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 64, ImageW: 48, KernelSize: 5, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := workload.EdgeInputs(bufs, 9)
	want, err := exec.RunReference(g, in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := over.Execute(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		if !rep.Outputs[id].AlmostEqual(w, 1e-3) {
			t.Fatal("overlapped execution wrong result")
		}
	}
}

// The separable edge template runs through the whole pipeline (split +
// schedule + execute) and needs fewer kernel-parameter transfers.
func TestSeparableEdgeEndToEnd(t *testing.T) {
	g, bufs, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 64, ImageW: 48, KernelSize: 5, Orientations: 4, Separable: true})
	if err != nil {
		t.Fatal(err)
	}
	in := workload.EdgeInputs(bufs, 11)
	want, err := exec.RunReference(g, in)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Config{Device: gpu.Custom("sep", 40<<10)})
	c, err := eng.Compile(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if c.Split.SplitNodes == 0 {
		t.Fatal("expected splitting")
	}
	rep, err := c.Execute(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		if !rep.Outputs[id].AlmostEqual(w, 1e-3) {
			t.Fatalf("separable pipeline differs by %v", rep.Outputs[id].MaxAbsDiff(w))
		}
	}
}
