package exec

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/templates"
)

// compileFor splits g for the capacity and schedules it heuristically.
func compileFor(t *testing.T, g *graph.Graph, capacity int64) *sched.Plan {
	t.Helper()
	if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Heuristic(g, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Verify(g, plan, capacity); err != nil {
		t.Fatal(err)
	}
	return plan
}

func cnnGraph(t *testing.T, h, w int) (*graph.Graph, Inputs) {
	t.Helper()
	g, bufs, err := templates.CNN(templates.SmallCNN(h, w))
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{}
	for i, b := range bufs.Inputs {
		in[b.ID] = randTensor(int64(100+i), b.Shape().Rows, b.Shape().Cols)
	}
	for i, b := range bufs.Params {
		p := randTensor(int64(1000+i), b.Shape().Rows, b.Shape().Cols)
		for r := 0; r < p.Rows(); r++ {
			row := p.Row(r)
			for j := range row {
				row[j] *= 0.1 // keep tanh activations in range
			}
		}
		in[b.ID] = p
	}
	return g, in
}

// assertIdentical asserts the zero-overhead-when-healthy acceptance
// criterion: with fault injection disabled, a resilient Run must be bit-
// and stat-identical to plain Run.
func assertIdentical(t *testing.T, spec gpu.Spec, g *graph.Graph, plan *sched.Plan, in Inputs, capacity int64) {
	t.Helper()
	plain, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: gpu.New(spec)})
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	res, err := Run(context.Background(), g, plan, in, Options{
		Mode: Materialized, Device: gpu.New(spec),
		Resilient: &Resilience{Capacity: capacity},
	})
	if err != nil {
		t.Fatalf("resilient run: %v", err)
	}
	if res.Recovery == nil || !res.Recovery.Clean() {
		t.Fatalf("healthy run must report clean recovery, got %+v", res.Recovery)
	}
	if !reflect.DeepEqual(plain.Stats, res.Stats) {
		t.Fatalf("stats differ:\nplain     %+v\nresilient %+v", plain.Stats, res.Stats)
	}
	if plain.PeakResidentBytes != res.PeakResidentBytes {
		t.Fatalf("peak resident differs: %d vs %d", plain.PeakResidentBytes, res.PeakResidentBytes)
	}
	if len(plain.Outputs) != len(res.Outputs) {
		t.Fatalf("output count differs: %d vs %d", len(plain.Outputs), len(res.Outputs))
	}
	for id, w := range plain.Outputs {
		if !res.Outputs[id].Equal(w) {
			t.Fatalf("output %d not bit-identical (max diff %v)", id, res.Outputs[id].MaxAbsDiff(w))
		}
	}
}

func TestResilientZeroOverheadEdge(t *testing.T) {
	g, in := edgeGraph(t, 64, 64, 8)
	spec := gpu.Custom("t", 32<<10) // 8192 floats: forces split + eviction
	capacity := spec.PlannerCapacity()
	plan := compileFor(t, g, capacity)
	assertIdentical(t, spec, g, plan, in, capacity)
}

func TestResilientZeroOverheadCNN(t *testing.T) {
	g, in := cnnGraph(t, 32, 24)
	spec := gpu.Custom("t", 1<<20)
	capacity := spec.PlannerCapacity()
	plan := compileFor(t, g, capacity)
	assertIdentical(t, spec, g, plan, in, capacity)
}

func TestResilientTransientRetry(t *testing.T) {
	g, in := edgeGraph(t, 64, 64, 8)
	spec := gpu.Custom("t", 32<<10)
	capacity := spec.PlannerCapacity()
	plan := compileFor(t, g, capacity)

	clean, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: gpu.New(spec)})
	if err != nil {
		t.Fatal(err)
	}

	dev := gpu.New(spec)
	dev.SetInjector(gpu.NewInjector(3).
		FailAt(gpu.FaultMalloc, 0, gpu.Transient).
		FailAt(gpu.FaultH2D, 1, gpu.Transient).
		FailAt(gpu.FaultD2H, 0, gpu.Transient).
		FailAt(gpu.FaultLaunch, 2, gpu.Transient))
	rep, err := Run(context.Background(), g, plan, in, Options{
		Mode: Materialized, Device: dev,
		Resilient: &Resilience{Capacity: capacity},
	})
	if err != nil {
		t.Fatalf("resilient run: %v", err)
	}
	rec := rep.Recovery
	if rec.Retries != 4 {
		t.Fatalf("retries = %d, want 4 (one per scripted fault): %v", rec.Retries, rec.Events)
	}
	if rec.BackoffSeconds <= 0 || rep.Stats.RecoveryTime <= 0 {
		t.Fatalf("backoff must be charged: rec=%+v stats=%+v", rec, rep.Stats)
	}
	if len(rec.Events) != 4 {
		t.Fatalf("events = %v", rec.Events)
	}
	// Faulted calls charge nothing: aside from recovery time, the stats
	// must equal a clean run's.
	got := rep.Stats
	got.RecoveryTime = 0
	if !reflect.DeepEqual(clean.Stats, got) {
		t.Fatalf("retried run stats diverge:\nclean %+v\ngot   %+v", clean.Stats, got)
	}
	for id, w := range clean.Outputs {
		if !rep.Outputs[id].Equal(w) {
			t.Fatalf("output %d differs after retries", id)
		}
	}
}

func TestResilientDeviceLossReplay(t *testing.T) {
	g, in := edgeGraph(t, 64, 64, 8)
	spec := gpu.Custom("t", 32<<10)
	capacity := spec.PlannerCapacity()
	plan := compileFor(t, g, capacity)

	// Probe a clean run to count device operations, so the scripted loss
	// lands mid-plan (past at least one offload-unit checkpoint).
	probeDev := gpu.New(spec)
	probe := gpu.NewInjector(1)
	probeDev.SetInjector(probe)
	clean, err := Run(context.Background(), g, plan, in, Options{
		Mode: Materialized, Device: probeDev, Resilient: &Resilience{Capacity: capacity}})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Ops() < 8 {
		t.Fatalf("plan too short to position a mid-plan loss: %d ops", probe.Ops())
	}

	dev := gpu.New(spec)
	dev.SetInjector(gpu.NewInjector(1).
		FailAt(gpu.FaultDeviceLost, probe.Ops()/2, gpu.Persistent))
	rep, err := Run(context.Background(), g, plan, in, Options{
		Mode: Materialized, Device: dev,
		Resilient: &Resilience{Capacity: capacity},
	})
	if err != nil {
		t.Fatalf("resilient run after device loss: %v", err)
	}
	rec := rep.Recovery
	if rec.Replays != 1 {
		t.Fatalf("replays = %d, want 1: %v", rec.Replays, rec.Events)
	}
	if rec.ReplayedFloats <= 0 {
		t.Fatalf("mid-plan loss must replay checkpointed residency: %+v", rec)
	}
	if rep.Stats.H2DFloats <= clean.Stats.H2DFloats {
		t.Fatalf("replayed H2D volume must show in stats: %d vs clean %d",
			rep.Stats.H2DFloats, clean.Stats.H2DFloats)
	}
	for id, w := range clean.Outputs {
		if !rep.Outputs[id].Equal(w) {
			t.Fatalf("output %d differs after replay", id)
		}
	}
}

func TestResilientOOMDegradationLadder(t *testing.T) {
	g, in := edgeGraph(t, 96, 96, 8)
	spec := gpu.Custom("t", 64<<10) // 16384 floats physical
	capacity := spec.PlannerCapacity()
	// Plan compiled against triple the device's real budget: its resident
	// set cannot fit, so execution hits a genuine allocator OOM and the
	// degradation ladder must replan at the true capacity.
	want, err := RunReference(g, in)
	if err != nil {
		t.Fatal(err)
	}

	gOver := g.Clone()
	planOver := compileFor(t, gOver, capacity*3)
	fp := gOver.Fingerprint()
	rep, err := Run(context.Background(), gOver, planOver, in, Options{
		Mode: Materialized, Device: gpu.New(spec),
		Resilient: &Resilience{Capacity: capacity},
	})
	if err != nil {
		t.Fatalf("ladder must recover from OOM: %v", err)
	}
	rec := rep.Recovery
	if rec.Replans < 1 {
		t.Fatalf("replans = %d, want >= 1: %v", rec.Replans, rec.Events)
	}
	if rec.CPUFallback {
		t.Fatalf("replan should succeed without CPU fallback: %v", rec.Events)
	}
	if len(rec.ReplanBudgets) != rec.Replans {
		t.Fatalf("budgets %v vs %d replans", rec.ReplanBudgets, rec.Replans)
	}
	for id, w := range want {
		if !rep.Outputs[id].AlmostEqual(w, 1e-4) {
			t.Fatalf("output %d differs after replan by %v", id, rep.Outputs[id].MaxAbsDiff(w))
		}
	}
	// The ladder's replan splits a copy: the graph the caller executes is
	// never written.
	if got := gOver.Fingerprint(); got != fp {
		t.Fatalf("replan wrote the caller's graph: fingerprint %s, want %s", got, fp)
	}
}

func TestResilientCPUFallback(t *testing.T) {
	g, in := edgeGraph(t, 64, 64, 8)
	// Plan that assumes a huge device; the real device cannot even hold
	// the input image, and the ladder budgets are too small for any split
	// to fit (a 1-row conv part still needs its halo), so every rung
	// fails and the executor must fall back to the CPU reference.
	plan := compileFor(t, g, 1<<20)
	spec := gpu.Custom("t", 4000)
	want, err := RunReference(g, in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), g, plan, in, Options{
		Mode: Materialized, Device: gpu.New(spec),
		Resilient: &Resilience{Capacity: 600},
	})
	if err != nil {
		t.Fatalf("CPU fallback must absorb the failure: %v", err)
	}
	rec := rep.Recovery
	if !rec.CPUFallback {
		t.Fatalf("want CPU fallback, got %+v", rec)
	}
	for id, w := range want {
		if !rep.Outputs[id].Equal(w) {
			t.Fatalf("fallback output %d differs", id)
		}
	}
	// Accounting mode has no data to fall back with: the OOM surfaces,
	// with a partial report.
	rep2, err := Run(context.Background(), g, plan, in, Options{
		Mode: Accounting, Device: gpu.New(spec),
		Resilient: &Resilience{Capacity: 600},
	})
	if err == nil || !errors.Is(err, gpu.ErrOOM) {
		t.Fatalf("want OOM error, got %v", err)
	}
	if rep2 == nil {
		t.Fatal("failed resilient run must return the partial report")
	}
}

// TestResilientChaos is the seeded chaos acceptance test: transient
// transfer faults, a mid-plan device loss, and a persistent OOM are all
// injected into one EdgeDetect run; the resilient executor must complete
// with outputs matching the pure-CPU reference and Recovery documenting
// every action taken.
func TestResilientChaos(t *testing.T) {
	g, in := edgeGraph(t, 96, 96, 8)
	spec := gpu.Custom("t", 256<<10) // 65536 floats
	capacity := spec.PlannerCapacity()
	want, err := RunReference(g, in)
	if err != nil {
		t.Fatal(err)
	}
	gRun := g.Clone()
	plan := compileFor(t, gRun, capacity)

	// Probe a clean run to position the scripted faults deterministically.
	probeDev := gpu.New(spec)
	probe := gpu.NewInjector(1)
	probeDev.SetInjector(probe)
	probeRep, err := Run(context.Background(), gRun, plan, in, Options{
		Mode: Materialized, Device: probeDev, Resilient: &Resilience{Capacity: capacity}})
	if err != nil {
		t.Fatal(err)
	}
	// Every fallible operation of a clean run is a malloc, an H2D, a D2H
	// or a launch, and the report counts the last three.
	st := probeRep.Stats
	nOps := probe.Ops()
	nMalloc := nOps - st.H2DCalls - st.D2HCalls - st.KernelLaunches
	if nOps < 10 || nMalloc < 4 {
		t.Fatalf("plan too short for chaos: %d ops, %d mallocs", nOps, nMalloc)
	}

	dev := gpu.New(spec)
	inj := gpu.NewInjector(7).
		SetRate(gpu.FaultH2D, 0.05, gpu.Transient).
		SetRate(gpu.FaultD2H, 0.05, gpu.Transient).
		// Mid-plan device loss, past at least one unit checkpoint.
		FailAt(gpu.FaultDeviceLost, nOps/2, gpu.Persistent).
		// Persistent OOM late in the (replayed) first attempt.
		FailAt(gpu.FaultMalloc, nMalloc-1, gpu.Persistent)
	dev.SetInjector(inj)

	rep, err := Run(context.Background(), gRun, plan, in, Options{
		Mode: Materialized, Device: dev,
		Resilient: &Resilience{Capacity: capacity},
	})
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	rec := rep.Recovery
	t.Logf("chaos recovery: %s", rec)
	for _, e := range rec.Events {
		t.Logf("  %s", e)
	}
	if rec.Retries < 1 {
		t.Fatalf("expected transient retries, got %+v", rec)
	}
	if rec.Replays < 1 {
		t.Fatalf("expected a device-loss replay, got %+v", rec)
	}
	if rec.Replans < 1 {
		t.Fatalf("expected an OOM replan, got %+v", rec)
	}
	if rec.CPUFallback {
		t.Fatalf("chaos run should recover on the GPU: %v", rec.Events)
	}
	if len(rec.Events) < rec.Retries+rec.Replays+rec.Replans {
		t.Fatalf("recovery log incomplete: %d events for %+v", len(rec.Events), rec)
	}
	if rep.Stats.RecoveryTime <= 0 {
		t.Fatal("recovery cost must be charged to the simulated clock")
	}
	if len(rep.Outputs) != len(want) {
		t.Fatalf("outputs: %d, want %d", len(rep.Outputs), len(want))
	}
	for id, w := range want {
		if !rep.Outputs[id].AlmostEqual(w, 1e-4) {
			t.Fatalf("chaos output %d differs by %v", id, rep.Outputs[id].MaxAbsDiff(w))
		}
	}
}

func TestRunRejectsDirtyDevice(t *testing.T) {
	g, in := edgeGraph(t, 32, 32, 4)
	plan := compileFor(t, g, 1<<20)
	dev := gpu.New(gpu.Custom("t", 1<<20))
	if _, err := dev.Malloc(400); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: dev})
	if err == nil || !strings.Contains(err.Error(), "not pristine") {
		t.Fatalf("dirty device must be rejected, got %v", err)
	}
	dev.Recover()
	if _, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: dev}); err != nil {
		t.Fatalf("recovered device must run: %v", err)
	}
}
