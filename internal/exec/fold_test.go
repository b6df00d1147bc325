package exec_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/templates"
	"repro/internal/workload"
)

// checkFold runs plan under the sequential and pipelined drivers, and the
// resilient one when resilient is set, and asserts that each charges
// exactly what sched.Fold computes: equal Stats, the same timeline events
// one for one (the executor records them as the observer's simulated-clock
// spans), and no compaction (which the fold, a plan-level clock, cannot
// see).
func checkFold(t *testing.T, g *graph.Graph, plan *sched.Plan, in exec.Inputs, mode exec.Mode, spec gpu.Spec, overlap, resilient bool) {
	t.Helper()
	want := &gpu.Trace{}
	st := sched.Fold(plan, spec, overlap, want)
	drivers := map[string]exec.Options{
		"sequential": {},
		"pipelined":  {Pipeline: true, PipelineWorkers: 2},
	}
	if resilient {
		drivers["resilient"] = exec.Options{Resilient: &exec.Resilience{}}
	}
	for name, opt := range drivers {
		opt.Mode, opt.Device, opt.Overlap = mode, gpu.New(spec), overlap
		opt.Obs = obs.New()
		rep, err := exec.Run(context.Background(), g, plan, in, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Stats != st {
			t.Fatalf("%s: charged stats differ from the fold\n run  %+v\n fold %+v", name, rep.Stats, st)
		}
		if rep.Stats.Compactions != 0 {
			t.Fatalf("%s: %d compactions", name, rep.Stats.Compactions)
		}
		var got []obs.SpanRec
		for _, sp := range opt.Obs.T().Spans() {
			if sp.Domain == obs.Sim {
				got = append(got, sp)
			}
		}
		if len(got) != len(want.Events) {
			t.Fatalf("%s: %d timeline events, fold has %d", name, len(got), len(want.Events))
		}
		for i, ev := range want.Events {
			name := ev.Label
			if name == "" {
				name = ev.Kind.String()
			}
			sp := got[i]
			if sp.Track != ev.Engine || sp.Cat != ev.Kind.String() || sp.Name != name || sp.Start != ev.Start || sp.End != ev.End {
				t.Fatalf("%s: event %d is %+v, fold has %+v", name, i, sp, ev)
			}
		}
	}
}

// Every catalog workload on every paper device, with and without
// overlap: the executor's account half is the fold.
func TestFoldMatchesExecution(t *testing.T) {
	specs := []gpu.Spec{gpu.TeslaC870(), gpu.GeForce8800GTX(), gpu.TeslaC1060()}
	for _, e := range workload.Catalog {
		ws := workload.Spec{Template: e.Name}
		switch e.Name {
		case "edge":
			ws.H, ws.W = 3000, 3000
		case "cnn-small", "cnn-large":
			ws.H, ws.W = 6400, 480
		default:
			ws.H = 4096
		}
		for _, spec := range specs {
			for _, overlap := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/overlap=%t", e.Name, spec.Name, overlap), func(t *testing.T) {
					g, _, err := ws.Build()
					if err != nil {
						t.Fatal(err)
					}
					opts := []core.Option{core.WithDevice(spec)}
					if overlap {
						opts = append(opts, core.WithOverlap())
					}
					c, _, err := core.NewService(opts...).Compile(context.Background(), g)
					if err != nil {
						t.Fatal(err)
					}
					// The resilient driver copies host validity at every
					// sync; on the Large CNN's 7 444 syncs that alone takes
					// seconds, so that one template skips it.
					checkFold(t, c.Graph, c.Plan, nil, exec.Accounting, spec, overlap, e.Name != "cnn-large")
				})
			}
		}
	}
}

// The benchmark's exec plan, materialized: Small CNN 160×120 chunked and
// prefetched in a 512 KiB arena.
func TestFoldMatchesMaterializedExecution(t *testing.T) {
	g, bufs, err := templates.CNN(templates.SmallCNN(160, 120))
	if err != nil {
		t.Fatal(err)
	}
	in := workload.CNNInputs(bufs, 1)
	spec := gpu.Custom("bench-arena", 512<<10)
	spec.Headroom = 0.7
	capacity := spec.PlannerCapacity()
	if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
		t.Fatal(err)
	}
	base, err := sched.Heuristic(g, capacity)
	if err != nil {
		t.Fatal(err)
	}
	plan := sched.PrefetchH2D(base, capacity*9/10)
	if h2d, _, _, _ := plan.Counts(); len(plan.Steps) != 6553 || h2d != 854 {
		t.Fatalf("plan has %d steps and %d H2D, want the benchmark's 6553 and 854", len(plan.Steps), h2d)
	}
	checkFold(t, g, plan, in, exec.Materialized, spec, false, true)
}
