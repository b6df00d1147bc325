package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/tensor"
)

// The benchmark's exec_* configuration (bench/execw.go): Small CNN
// 160×120 against a 512 KiB arena at headroom 0.7, heuristic plan with
// the H2D prefetch hoist. It chunks, evicts and re-uploads, so every
// recycling path runs: H2D copies, launch outputs, halo gathers, frees.
func benchSpec() gpu.Spec {
	spec := gpu.Custom("bench-arena", 512<<10)
	spec.Headroom = 0.7
	return spec
}

type benchFixture struct {
	spec gpu.Spec
	g    *graph.Graph
	plan *sched.Plan
	in   Inputs
	ref  Outputs
}

func benchPlan(t *testing.T) *benchFixture {
	t.Helper()
	f := &benchFixture{spec: benchSpec()}
	f.g, f.in = cnnGraph(t, 160, 120)
	var err error
	// The reference interprets the template before the split pass
	// rewrites it.
	if f.ref, err = RunReference(f.g, f.in); err != nil {
		t.Fatal(err)
	}
	capacity := f.spec.PlannerCapacity()
	if _, err := split.Apply(f.g, split.Options{Capacity: capacity}); err != nil {
		t.Fatal(err)
	}
	base, err := sched.Heuristic(f.g, capacity)
	if err != nil {
		t.Fatal(err)
	}
	f.plan = sched.PrefetchH2D(base, capacity*9/10)
	if err := sched.Verify(f.g, f.plan, capacity); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *benchFixture) run(t *testing.T, opt Options) *Report {
	t.Helper()
	opt.Mode = Materialized
	if opt.Device == nil {
		opt.Device = gpu.New(f.spec)
	}
	rep, err := Run(context.Background(), f.g, f.plan, f.in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if used := opt.Device.Allocator().UsedBytes(); used != 0 {
		t.Fatalf("device holds %d bytes after the run", used)
	}
	return rep
}

func sameOutputs(t *testing.T, what string, got, want Outputs) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for id, w := range want {
		if g := got[id]; g == nil || !g.Equal(w) {
			t.Fatalf("%s: output %d differs from the reference", what, id)
		}
	}
}

// The plan facts bench/expected.json pins for this configuration: the
// recycling executor must not change what is planned or charged.
func checkBenchFacts(t *testing.T, what string, f *benchFixture, rep *Report) {
	t.Helper()
	s := rep.Stats
	got := [6]int64{int64(len(f.plan.Steps)), int64(s.KernelLaunches), int64(s.H2DCalls), int64(s.D2HCalls),
		s.TotalFloats(), rep.PeakResidentBytes}
	if want := [6]int64{6553, 1610, 854, 15, 596912, 364800}; got != want {
		t.Fatalf("%s: steps, launches, h2d, d2h, floats, peak bytes = %v, want %v", what, got, want)
	}
}

// lossAfterEvictionSync returns the plan index of the first StepSync that
// follows an eviction (a free of a buffer some later step uploads again)
// and the global index of the first fallible device operation after it
// (mallocs and transfer/launch gates, in perform's order).
func lossAfterEvictionSync(t *testing.T, plan *sched.Plan) (syncStep, op int) {
	t.Helper()
	lastH2D := map[int]int{}
	for si, s := range plan.Steps {
		if s.Kind == sched.StepH2D {
			lastH2D[s.Buf.ID] = si
		}
	}
	resident := map[int]bool{}
	evicted := false
	for si, s := range plan.Steps {
		switch s.Kind {
		case sched.StepH2D:
			resident[s.Buf.ID] = true
			op += 2 // malloc, transfer gate
		case sched.StepD2H:
			op++
		case sched.StepFree:
			delete(resident, s.Buf.ID)
			evicted = evicted || lastH2D[s.Buf.ID] > si
		case sched.StepLaunch:
			for _, b := range s.Node.Out.Bufs {
				if !resident[b.ID] {
					resident[b.ID] = true
					op++ // output malloc
				}
			}
			op++ // launch gate
		case sched.StepSync:
			if evicted {
				return si, op
			}
		}
	}
	t.Fatal("plan has no sync after an eviction")
	return 0, 0
}

// TestRecycledRunMatrix: under every driver the recycling executor (free
// list poisoned with NaN by TestMain) reproduces the reference bit for
// bit on the benchmark's plan, and charges exactly what the plan says.
func TestRecycledRunMatrix(t *testing.T) {
	f := benchPlan(t)
	res := &Resilience{Capacity: f.spec.PlannerCapacity()}

	seq := f.run(t, Options{})
	sameOutputs(t, "sequential", seq.Outputs, f.ref)
	checkBenchFacts(t, "sequential", f, seq)
	for name, opt := range map[string]Options{
		"pipelined": {Pipeline: true, PipelineWorkers: 2},
		"resilient": {Resilient: res},
	} {
		rep := f.run(t, opt)
		sameOutputs(t, name, rep.Outputs, f.ref)
		if rep.Stats != seq.Stats || rep.PeakResidentBytes != seq.PeakResidentBytes {
			t.Fatalf("%s: stats %+v peak %d, sequential %+v peak %d",
				name, rep.Stats, rep.PeakResidentBytes, seq.Stats, seq.PeakResidentBytes)
		}
	}

	t.Run("device loss after an eviction's sync", func(t *testing.T) {
		syncStep, op := lossAfterEvictionSync(t, f.plan)
		dev := gpu.New(f.spec)
		dev.SetInjector(gpu.NewInjector(1).FailAt(gpu.FaultDeviceLost, op, gpu.Persistent))
		rep := f.run(t, Options{Device: dev, Resilient: res})
		sameOutputs(t, "restored", rep.Outputs, f.ref)
		rec := rep.Recovery
		if rec.Replays != 1 || rec.ReplayedFloats <= 0 {
			t.Fatalf("want one replay of a non-empty checkpoint: %+v", rec)
		}
		want := fmt.Sprintf("restoring checkpoint at step %d ", syncStep+1)
		if !strings.Contains(strings.Join(rec.Events, "\n"), want) {
			t.Fatalf("no %q in %q", want, rec.Events)
		}
	})

	t.Run("partitioned k=2", func(t *testing.T) {
		specs := []gpu.Spec{benchSpec(), benchSpec()}
		specs[0].Name, specs[1].Name = "bench-arena-0", "bench-arena-1"
		g, in := cnnGraph(t, 160, 120)
		if _, err := split.Apply(g, split.Options{Capacity: specs[0].PlannerCapacity()}); err != nil {
			t.Fatal(err)
		}
		pp, err := sched.BuildPartition(g, sched.PartitionAssign(g, specs), specs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		devs := newPartDevices(specs)
		pr, err := RunPartitioned(context.Background(), g, pp, devs, in, Options{Mode: Materialized})
		if err != nil {
			t.Fatal(err)
		}
		sameOutputs(t, "partitioned", pr.Outputs, f.ref)
		for _, d := range devs {
			if used := d.Allocator().UsedBytes(); used != 0 {
				t.Fatalf("%s holds %d bytes after the run", d.Spec.Name, used)
			}
		}
	})
}

// TestPipelinedRecycledRun puts the free list under CI's pipelined
// -race -count=2 step (it selects tests by the TestPipelined prefix):
// perform halves on three goroutines take from and refill one list.
func TestPipelinedRecycledRun(t *testing.T) {
	f := benchPlan(t)
	for _, workers := range []int{1, 3} {
		rep := f.run(t, Options{Pipeline: true, PipelineWorkers: workers})
		sameOutputs(t, fmt.Sprintf("%d workers", workers), rep.Outputs, f.ref)
	}
}

// TestRunDoesNotAliasCaller: Report.Outputs are host root arrays the run
// allocated for itself — neither the caller's input tensors nor storage a
// later run could recycle.
func TestRunDoesNotAliasCaller(t *testing.T) {
	f := benchPlan(t)
	first := f.run(t, Options{})
	sameOutputs(t, "first run", first.Outputs, f.ref)
	for _, in := range f.in {
		in.Fill(float32(len(f.in)))
	}
	f.run(t, Options{})
	eg, ein := edgeGraph(t, 64, 64, 8)
	espec := gpu.Custom("t", 32<<10)
	if _, err := Run(context.Background(), eg, compileFor(t, eg, espec.PlannerCapacity()), ein,
		Options{Mode: Materialized, Device: gpu.New(espec)}); err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, "first run after two more", first.Outputs, f.ref)
}

// TestMaterializedRunAllocBudget is the tier-1 gate on what one
// materialized run allocates. Before the free list and the lazily created
// host arrays this run allocated 106.6 MB in 119 k objects (for a peak
// residency of 0.36 MB); it now takes about 5.5 MB in 41 k. The budget
// leaves room for -race and loses either mechanism loudly.
func TestMaterializedRunAllocBudget(t *testing.T) {
	f := benchPlan(t)
	f.run(t, Options{}) // warm: lazy runtime and package state
	var bytes, objects uint64 = 1 << 62, 1 << 62
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f.run(t, Options{})
		runtime.ReadMemStats(&m1)
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
		objects = min(objects, m1.Mallocs-m0.Mallocs)
	}
	t.Logf("one exec.Run: %.2f MB in %d objects", float64(bytes)/1e6, objects)
	if bytes > 12e6 || objects > 60000 {
		t.Fatalf("one exec.Run allocates %.2f MB in %d objects; budget 12 MB, 60000", float64(bytes)/1e6, objects)
	}
}

// failingOp is a copy operator whose kernel always fails.
type failingOp struct{ graph.Operator }

var errKernel = errors.New("kernel exploded")

func (failingOp) Run([]*tensor.Tensor, *tensor.Tensor) error { return errKernel }

// failingPlan is copy → failing copy → copy on a roomy device: the plan's
// second launch fails inside its kernel, after perform allocated the
// launch's output.
func failingPlan(t *testing.T) (*graph.Graph, *sched.Plan, Inputs, gpu.Spec) {
	t.Helper()
	g := graph.New()
	s := graph.Shape{Rows: 8, Cols: 8}
	x := g.NewBuffer("x", s)
	x.IsInput = true
	a, b, y := g.NewBuffer("a", s), g.NewBuffer("b", s), g.NewBuffer("y", s)
	y.IsOutput = true
	g.MustAddNode("first", ops.NewCopy(), []graph.Arg{graph.SingleArg(x)}, graph.SingleArg(a))
	g.MustAddNode("second", failingOp{ops.NewCopy()}, []graph.Arg{graph.SingleArg(a)}, graph.SingleArg(b))
	g.MustAddNode("third", ops.NewCopy(), []graph.Arg{graph.SingleArg(b)}, graph.SingleArg(y))
	spec := gpu.Custom("roomy", 1<<20)
	plan, err := sched.Heuristic(g, spec.PlannerCapacity())
	if err != nil {
		t.Fatal(err)
	}
	return g, plan, Inputs{x.ID: randTensor(1, s.Rows, s.Cols)}, spec
}

// TestPerformIsAtomicOnKernelError: a launch whose kernel fails leaves the
// device and the executor as they were before the step — the outputs it
// had allocated are freed and their tensors recycled — rather than
// resident until abort.
func TestPerformIsAtomicOnKernelError(t *testing.T) {
	g, plan, in, spec := failingPlan(t)
	dev := gpu.New(spec)
	e, err := newExecutor(g, plan, in, Options{Mode: Materialized, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	launches := 0
	for si, step := range plan.Steps {
		if step.Kind == sched.StepLaunch {
			launches++
		}
		if launches < 2 {
			if err := e.step(si, step); err != nil {
				t.Fatal(err)
			}
			continue
		}
		// Tensor storage the executor holds: recycling must not lose any.
		held := func() int64 {
			n := e.freeFloats
			for _, db := range e.resident {
				n += int64(db.data.Len())
			}
			return n
		}
		used, resident, floats := dev.Allocator().UsedBytes(), len(e.resident), held()
		if err := e.perform(si, step); !errors.Is(err, errKernel) {
			t.Fatalf("perform = %v, want the kernel's error", err)
		}
		if got := dev.Allocator().UsedBytes(); got != used {
			t.Fatalf("device holds %d bytes after the failed launch, %d before it", got, used)
		}
		if len(e.resident) != resident {
			t.Fatalf("%d buffers resident after the failed launch, %d before it", len(e.resident), resident)
		}
		if got := held(); got < floats {
			t.Fatalf("executor holds %d floats of tensor storage, %d before the failed launch: the rolled-back output was not recycled", got, floats)
		}
		break
	}
	if _, err := e.abort(nil); err != nil {
		t.Fatal(err)
	}

	for name, opt := range map[string]Options{
		"sequential": {},
		"pipelined":  {Pipeline: true},
		"resilient":  {Resilient: &Resilience{DisableCPUFallback: true}},
	} {
		dev := gpu.New(spec)
		opt.Mode, opt.Device = Materialized, dev
		if _, err := Run(context.Background(), g, plan, in, opt); !errors.Is(err, errKernel) {
			t.Fatalf("%s: err = %v, want the kernel's error", name, err)
		}
		if used := dev.Allocator().UsedBytes(); used != 0 {
			t.Fatalf("%s: device holds %d bytes after Run returned", name, used)
		}
	}
}
