package exec

import (
	"context"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sched"
	"repro/internal/split"
)

func TestOverlapReducesWallTime(t *testing.T) {
	g, in := edgeGraph(t, 64, 48, 5)
	want, err := RunReference(g, in)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 9000 // forces splitting and repeated transfers
	if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Heuristic(g, capacity)
	if err != nil {
		t.Fatal(err)
	}

	spec := gpu.TeslaC1060()
	spec.MemoryBytes = capacity * 6
	if !spec.AsyncTransfer {
		t.Fatal("C1060 must support async transfer")
	}

	devSync := gpu.New(spec)
	repSync, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: devSync})
	if err != nil {
		t.Fatal(err)
	}
	devAsync := gpu.New(spec)
	repAsync, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: devAsync, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}

	// Identical transfers, launches, and results; shorter wall time.
	if repAsync.Stats.TotalFloats() != repSync.Stats.TotalFloats() {
		t.Fatal("overlap must not change transfer volume")
	}
	if repAsync.Stats.KernelLaunches != repSync.Stats.KernelLaunches {
		t.Fatal("overlap must not change launches")
	}
	if repAsync.Stats.WallTime <= 0 {
		t.Fatal("overlap must report a wall time")
	}
	if repAsync.Stats.TotalTime() >= repSync.Stats.TotalTime() {
		t.Fatalf("overlap did not help: %.6f vs %.6f",
			repAsync.Stats.TotalTime(), repSync.Stats.TotalTime())
	}
	// The makespan can never beat either engine's busy time.
	busy := repAsync.Stats.ComputeTime + repAsync.Stats.SyncTime
	if repAsync.Stats.WallTime < busy-1e-12 {
		t.Fatalf("wall %.6f below compute+sync %.6f", repAsync.Stats.WallTime, busy)
	}
	if repAsync.Stats.WallTime < repAsync.Stats.TransferTime-1e-12 {
		t.Fatal("wall below DMA busy time")
	}
	for id, w := range want {
		if !repAsync.Outputs[id].AlmostEqual(w, 1e-4) {
			t.Fatal("overlap changed results")
		}
	}
}

func TestOverlapIgnoredWithoutDeviceSupport(t *testing.T) {
	g, in := edgeGraph(t, 24, 20, 3)
	plan, err := sched.Heuristic(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpu.New(gpu.TeslaC870()) // no async support
	rep, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: dev, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.WallTime != 0 {
		t.Fatal("overlap must be ignored on synchronous devices")
	}
}

func TestThrashingFlag(t *testing.T) {
	g, _ := edgeGraph(t, 64, 48, 5)
	const capacity = 9000
	if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Heuristic(g, capacity)
	if err != nil {
		t.Fatal(err)
	}
	// A host with almost no memory: any transfer volume exceeds it.
	spec := gpu.Custom("tiny-host", capacity*6)
	spec.HostMemoryBytes = 1024
	dev := gpu.New(spec)
	rep, err := Run(context.Background(), g, plan, nil, Options{Mode: Accounting, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Thrashing {
		t.Fatal("expected thrashing flag")
	}
	// A normal 8 GB host is fine.
	spec.HostMemoryBytes = 8 << 30
	dev2 := gpu.New(spec)
	rep2, err := Run(context.Background(), g, plan, nil, Options{Mode: Accounting, Device: dev2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Thrashing {
		t.Fatal("unexpected thrashing flag")
	}
}

func TestSyncAccounting(t *testing.T) {
	g, in := edgeGraph(t, 24, 20, 3)
	plan, err := sched.Heuristic(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpu.New(gpu.TeslaC870())
	rep, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	syncs := 0
	for _, s := range plan.Steps {
		if s.Kind == sched.StepSync {
			syncs++
		}
	}
	if rep.Stats.Syncs != syncs || rep.Stats.Syncs != len(g.Nodes) {
		t.Fatalf("syncs = %d, want %d (one per operator)", rep.Stats.Syncs, len(g.Nodes))
	}
	wantSyncTime := float64(rep.Stats.Syncs) * dev.Spec.SyncOverhead
	if diff := rep.Stats.SyncTime - wantSyncTime; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("sync time %v, want %v", rep.Stats.SyncTime, wantSyncTime)
	}
}

func TestExecutorTraceRecording(t *testing.T) {
	g, in := edgeGraph(t, 24, 20, 3)
	plan, err := sched.Heuristic(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpu.New(gpu.TeslaC870())
	rep, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	tr := &gpu.Trace{}
	sched.Fold(plan, dev.Spec, false, tr)
	kernels, h2d, d2h, syncs := 0, 0, 0, 0
	for _, e := range tr.Events {
		switch e.Kind {
		case gpu.EventKernel:
			kernels++
		case gpu.EventH2D:
			h2d++
		case gpu.EventD2H:
			d2h++
		case gpu.EventSync:
			syncs++
		}
		if e.End < e.Start {
			t.Fatalf("event %v ends before it starts", e)
		}
	}
	if kernels != rep.Stats.KernelLaunches || h2d != rep.Stats.H2DCalls ||
		d2h != rep.Stats.D2HCalls || syncs != rep.Stats.Syncs {
		t.Fatalf("trace counts %d/%d/%d/%d != stats %d/%d/%d/%d",
			kernels, h2d, d2h, syncs,
			rep.Stats.KernelLaunches, rep.Stats.H2DCalls, rep.Stats.D2HCalls, rep.Stats.Syncs)
	}
	// In serialized mode the trace span equals the total simulated time.
	if diff := tr.Span() - rep.Stats.TotalTime(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("trace span %v != total time %v", tr.Span(), rep.Stats.TotalTime())
	}
}

func TestExecutorTraceOverlapShorterSpan(t *testing.T) {
	g, in := edgeGraph(t, 64, 48, 5)
	const capacity = 9000
	if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Heuristic(g, capacity)
	if err != nil {
		t.Fatal(err)
	}
	plan = sched.PrefetchH2D(plan, capacity)
	spec := gpu.TeslaC1060()
	spec.MemoryBytes = capacity * 6

	syncTr := &gpu.Trace{}
	if _, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: gpu.New(spec)}); err != nil {
		t.Fatal(err)
	}
	sched.Fold(plan, spec, false, syncTr)
	asyncTr := &gpu.Trace{}
	if _, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: gpu.New(spec), Overlap: true}); err != nil {
		t.Fatal(err)
	}
	sched.Fold(plan, spec, true, asyncTr)
	if asyncTr.Span() >= syncTr.Span() {
		t.Fatalf("overlapped span %v should beat serialized %v", asyncTr.Span(), syncTr.Span())
	}
	// Busy times are identical — only the packing changes.
	if d := asyncTr.BusyTime("dma") - syncTr.BusyTime("dma"); d > 1e-9 || d < -1e-9 {
		t.Fatal("dma busy time changed under overlap")
	}
}
