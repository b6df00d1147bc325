package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/templates"
)

// comparePipelined runs the same (graph, plan, inputs) sequentially and
// pipelined on fresh devices of the same spec and asserts the reports are
// identical: bit-identical outputs, equal stats, equal residency peak.
func comparePipelined(t *testing.T, name string, run func(pipeline bool) (*Report, error)) {
	t.Helper()
	seq, err := run(false)
	if err != nil {
		t.Fatalf("%s: sequential: %v", name, err)
	}
	pip, err := run(true)
	if err != nil {
		t.Fatalf("%s: pipelined: %v", name, err)
	}
	if !reflect.DeepEqual(seq.Stats, pip.Stats) {
		t.Fatalf("%s: stats diverge:\nsequential %+v\npipelined  %+v", name, seq.Stats, pip.Stats)
	}
	if seq.PeakResidentBytes != pip.PeakResidentBytes {
		t.Fatalf("%s: peak resident diverges: %d vs %d",
			name, seq.PeakResidentBytes, pip.PeakResidentBytes)
	}
	if seq.Thrashing != pip.Thrashing {
		t.Fatalf("%s: thrashing flag diverges", name)
	}
	if len(seq.Outputs) != len(pip.Outputs) {
		t.Fatalf("%s: output count diverges: %d vs %d", name, len(seq.Outputs), len(pip.Outputs))
	}
	for id, w := range seq.Outputs {
		if !pip.Outputs[id].Equal(w) {
			t.Fatalf("%s: output %d not bit-identical", name, id)
		}
	}
}

// The pipelined executor's core contract in materialized mode: for any
// worker count, with or without an observer, with or without overlapped
// engine accounting, the report matches sequential Run exactly.
func TestPipelinedMatchesRunMaterialized(t *testing.T) {
	g, in := edgeGraph(t, 64, 64, 8)
	spec := gpu.Custom("t", 32<<10) // forces split + eviction traffic
	capacity := spec.PlannerCapacity()
	plan := compileFor(t, g, capacity)

	for _, c := range []struct {
		name    string
		workers int
		obs     bool
	}{
		{"workers-1", 1, false},
		{"workers-4", 4, false},
		{"workers-default", 0, false},
		{"observed", 4, true},
	} {
		comparePipelined(t, c.name, func(pipeline bool) (*Report, error) {
			opt := Options{Mode: Materialized, Device: gpu.New(spec)}
			if c.obs {
				opt.Obs = obs.New()
			}
			if !pipeline {
				return Run(context.Background(), g, plan, in, opt)
			}
			opt.Pipeline = true
			opt.PipelineWorkers = c.workers
			return Run(context.Background(), g, plan, in, opt)
		})
	}

	// Overlapped engine accounting on an async-transfer device, with the
	// prefetch-hoisted plan that actually enables double-buffering.
	async := gpu.TeslaC1060()
	// 1.5x the planning budget in bytes: room for the prefetch hoist to
	// fragment the arena without overflowing it.
	async.MemoryBytes = capacity * 6
	pre := sched.PrefetchH2D(plan, capacity*9/10)
	comparePipelined(t, "overlap-prefetch", func(pipeline bool) (*Report, error) {
		opt := Options{Mode: Materialized, Device: gpu.New(async), Overlap: true, Pipeline: pipeline}
		return Run(context.Background(), g, pre, in, opt)
	})
}

// paperWorkloads mirrors experiments.PaperWorkloads (which cannot be
// imported here without an import cycle): the eight workload rows of
// Tables 1 and 2.
func paperWorkloads() []struct {
	Name, Input    string
	InputH, InputW int
	Build          func() (*graph.Graph, error)
} {
	type wl = struct {
		Name, Input    string
		InputH, InputW int
		Build          func() (*graph.Graph, error)
	}
	edge := func(dim int) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			g, _, err := templates.EdgeDetect(templates.EdgeConfig{
				ImageH: dim, ImageW: dim, KernelSize: 16, Orientations: 4,
				Combine: templates.CombineMax})
			return g, err
		}
	}
	specs := []wl{
		{"Edge detection", "1000x1000", 1000, 1000, edge(1000)},
		{"Edge detection", "10000x10000", 10000, 10000, edge(10000)},
	}
	for _, sz := range [][2]int{{640, 480}, {6400, 480}, {6400, 4800}} {
		sz := sz
		specs = append(specs, wl{
			"Small CNN", fmt.Sprintf("%dx%d", sz[0], sz[1]), sz[0], sz[1],
			func() (*graph.Graph, error) {
				g, _, err := templates.CNN(templates.SmallCNN(sz[0], sz[1]))
				return g, err
			}})
		specs = append(specs, wl{
			"Large CNN", fmt.Sprintf("%dx%d", sz[0], sz[1]), sz[0], sz[1],
			func() (*graph.Graph, error) {
				g, _, err := templates.CNN(templates.LargeCNN(sz[0], sz[1]))
				return g, err
			}})
	}
	return specs
}

// Stat-identity across every paper workload on both paper devices: the
// pipelined executor replays the identical simulated clock. Running this
// under -race is the pipelined concurrency stress for the full table.
func TestPipelinedStatIdenticalPaperWorkloads(t *testing.T) {
	for _, spec := range []gpu.Spec{gpu.TeslaC870(), gpu.TeslaC1060()} {
		for _, wl := range paperWorkloads() {
			if testing.Short() && int64(wl.InputH)*int64(wl.InputW) > 1000*1000 {
				continue
			}
			name := spec.Name + "/" + wl.Name + "/" + wl.Input
			t.Run(name, func(t *testing.T) {
				g, err := wl.Build()
				if err != nil {
					t.Fatal(err)
				}
				capacity := spec.PlannerCapacity()
				if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
					t.Fatal(err)
				}
				plan, err := sched.Heuristic(g, capacity)
				if err != nil {
					t.Fatal(err)
				}
				overlap := false
				if spec.AsyncTransfer {
					plan = sched.PrefetchH2D(plan, capacity*9/10)
					overlap = true
				}
				comparePipelined(t, name, func(pipeline bool) (*Report, error) {
					opt := Options{Mode: Accounting, Device: gpu.New(spec), Overlap: overlap, Pipeline: pipeline}
					return Run(context.Background(), g, plan, nil, opt)
				})
			})
		}
	}
}

// Injected faults under concurrency: the pipelined executor must stop
// dispatch, drain its engines, and surface the fault — never hang and
// never deadlock — whether the fault hits a transfer or a kernel.
func TestPipelinedFaultFailsCleanly(t *testing.T) {
	g, in := edgeGraph(t, 64, 64, 8)
	spec := gpu.Custom("t", 32<<10)
	capacity := spec.PlannerCapacity()
	plan := compileFor(t, g, capacity)

	for _, c := range []struct {
		name string
		kind gpu.FaultKind
		call int
	}{
		{"h2d", gpu.FaultH2D, 3},
		{"d2h", gpu.FaultD2H, 0},
		{"launch", gpu.FaultLaunch, 2},
		{"malloc", gpu.FaultMalloc, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := gpu.New(spec)
			dev.SetInjector(gpu.NewInjector(7).FailAt(c.kind, c.call, gpu.Persistent))
			rep, err := Run(context.Background(), g, plan, in, Options{
				Mode: Materialized, Device: dev, Pipeline: true, PipelineWorkers: 4})
			if err == nil {
				t.Fatal("injected fault did not surface")
			}
			var fe *gpu.FaultError
			if !errors.As(err, &fe) || fe.Kind != c.kind {
				t.Fatalf("error %v is not the injected %v fault", err, c.kind)
			}
			if rep == nil {
				t.Fatal("failed run must still return a partial report")
			}
		})
	}

	// Randomized fault rates: whatever interleaving the scheduler takes,
	// the run either succeeds with the exact sequential report or fails
	// with an injected fault — it never hangs or corrupts state.
	want, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: gpu.New(spec)})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		dev := gpu.New(spec)
		dev.SetInjector(gpu.NewInjector(seed).
			SetRate(gpu.FaultH2D, 0.02, gpu.Persistent).
			SetRate(gpu.FaultLaunch, 0.02, gpu.Persistent))
		rep, err := Run(context.Background(), g, plan, in, Options{
			Mode: Materialized, Device: dev, Pipeline: true, PipelineWorkers: 4})
		if err != nil {
			var fe *gpu.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("seed %d: non-fault error %v", seed, err)
			}
			continue
		}
		if !reflect.DeepEqual(want.Stats, rep.Stats) {
			t.Fatalf("seed %d: fault-free run diverges from sequential", seed)
		}
	}
}

// The pipelined run's wall-clock instrumentation: opt.WallTrace receives
// real host-time events from both engines, and the observer's timeline
// grows per-engine wall lanes.
func TestPipelinedWallTraceAndLanes(t *testing.T) {
	g, in := edgeGraph(t, 64, 64, 8)
	spec := gpu.Custom("t", 32<<10)
	capacity := spec.PlannerCapacity()
	plan := compileFor(t, g, capacity)

	wall := &gpu.Trace{}
	o := obs.New()
	if _, err := Run(context.Background(), g, plan, in, Options{
		Mode: Materialized, Device: gpu.New(spec),
		Pipeline: true, PipelineWorkers: 2, WallTrace: wall, Obs: o,
	}); err != nil {
		t.Fatal(err)
	}

	engines := map[string]int{}
	for _, ev := range wall.Events {
		if ev.End < ev.Start {
			t.Fatalf("wall event %q ends before it starts", ev.Label)
		}
		engines[ev.Engine]++
	}
	if engines["dma"] == 0 || engines["compute"] == 0 {
		t.Fatalf("wall trace missing an engine: %v", engines)
	}
	h2d, d2h, _, launch := plan.Counts()
	if got := engines["dma"]; got != h2d+d2h {
		t.Fatalf("dma wall events = %d, plan has %d transfers", got, h2d+d2h)
	}
	if got := engines["compute"]; got != launch {
		t.Fatalf("compute wall events = %d, plan has %d launches", got, launch)
	}

	lanes := map[string]int{}
	for _, s := range o.T().Spans() {
		lanes[s.Track]++
	}
	if lanes["pipe:dma"] != h2d+d2h {
		t.Fatalf("pipe:dma lane has %d spans, want %d", lanes["pipe:dma"], h2d+d2h)
	}
	compute := 0
	for track, n := range lanes {
		if len(track) > len("pipe:compute-") && track[:len("pipe:compute-")] == "pipe:compute-" {
			compute += n
		}
	}
	if compute != launch {
		t.Fatalf("pipe:compute lanes have %d spans, want %d", compute, launch)
	}
}
