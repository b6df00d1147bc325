// Package experiments regenerates every table and figure of the paper's
// evaluation section (§2 and §4): Fig. 1(c), Fig. 2, Fig. 3/6, Table 1,
// Table 2, and Fig. 8. Each experiment builds the corresponding template,
// runs the framework's compilation pipeline against the paper's two GPU
// platforms, and measures transfer volumes and simulated times in
// accounting mode (byte-exact, so paper-scale footprints up to 17 GB run
// in milliseconds). cmd/paperbench prints them; bench_test.go wraps each
// as a testing.B benchmark.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/workload"
)

// paperEdge is the paper's experimental edge template on a square image:
// 16×16 kernels at 4 orientations (2 convolutions + 2 remaps), max
// combine.
func paperEdge(dim int) workload.Spec {
	return workload.Spec{Template: "edge", H: dim, W: dim, Kernel: 16, Orientations: 4}
}

// compile runs the framework's one compile pipeline (core.Service:
// split, validate, schedule, prefetch when opts ask for overlap,
// residency, verify) on g for the device. g itself is not written.
func compile(g *graph.Graph, spec gpu.Spec, opts ...core.Option) (*core.Compiled, error) {
	svc := core.NewService(append([]core.Option{core.WithDevice(spec)}, opts...)...)
	c, _, err := svc.Compile(context.Background(), g)
	return c, err
}

// compileAndSimulate compiles the graph for the device with the paper's
// heuristic planner and replays the plan in accounting mode on the
// device's timing model.
func compileAndSimulate(g *graph.Graph, spec gpu.Spec) (*sched.Plan, *exec.Report, error) {
	c, err := compile(g, spec)
	if err != nil {
		return nil, nil, err
	}
	rep, err := c.Simulate(context.Background())
	if err != nil {
		return nil, nil, err
	}
	return c.Plan, rep, nil
}

// simulateBaseline builds the paper's baseline plan (no split pass: the
// baseline is a manual port that assumes each operator's data fits),
// checks it with the static verifier, and replays it. It returns
// feasible=false when some operator exceeds the device memory, the
// paper's "N/A" entries.
func simulateBaseline(g *graph.Graph, spec gpu.Spec) (*sched.Plan, gpu.Stats, bool, error) {
	capacity := spec.PlannerCapacity()
	plan, err := sched.Baseline(g, capacity)
	if err != nil {
		return nil, gpu.Stats{}, false, nil // infeasible: N/A
	}
	if err := sched.Verify(g, plan, capacity); err != nil {
		return nil, gpu.Stats{}, false, err
	}
	dev := gpu.New(spec)
	rep, err := exec.Run(context.Background(), g, plan, nil, exec.Options{Mode: exec.Accounting, Device: dev})
	if err != nil {
		return nil, gpu.Stats{}, false, err
	}
	return plan, rep.Stats, true, nil
}

// TemplateSpec identifies one workload row of Tables 1 and 2.
type TemplateSpec struct {
	Name   string
	Input  string
	Build  func() (*graph.Graph, error)
	InputH int
	InputW int
}

// PaperWorkloads returns the eight workload rows of Tables 1 and 2:
// edge detection at 1000² and 10000², and the small and large CNNs at
// 640×480, 6400×480, and 6400×4800.
func PaperWorkloads() []TemplateSpec {
	rows := []struct {
		name string
		spec workload.Spec
	}{
		{"Edge detection", paperEdge(1000)},
		{"Edge detection", paperEdge(10000)},
		{"Small CNN", workload.Spec{Template: "cnn-small", H: 640, W: 480}},
		{"Small CNN", workload.Spec{Template: "cnn-small", H: 6400, W: 480}},
		{"Small CNN", workload.Spec{Template: "cnn-small", H: 6400, W: 4800}},
		{"Large CNN", workload.Spec{Template: "cnn-large", H: 640, W: 480}},
		{"Large CNN", workload.Spec{Template: "cnn-large", H: 6400, W: 480}},
		{"Large CNN", workload.Spec{Template: "cnn-large", H: 6400, W: 4800}},
	}
	specs := make([]TemplateSpec, len(rows))
	for i, r := range rows {
		specs[i] = TemplateSpec{
			Name: r.name, Input: fmt.Sprintf("%dx%d", r.spec.H, r.spec.W),
			InputH: r.spec.H, InputW: r.spec.W,
			Build: func() (*graph.Graph, error) { g, _, err := r.spec.Build(); return g, err },
		}
	}
	return specs
}
