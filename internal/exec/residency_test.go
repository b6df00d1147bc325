package exec

import (
	"context"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sched"
	"repro/internal/split"
)

// shareableSet is res's shareable buffer IDs as a set, the form
// Options.Resident takes.
func shareableSet(res *sched.Residency) map[int]bool {
	m := make(map[int]bool, len(res.Shareable))
	for _, b := range res.Shareable {
		m[b.ID] = true
	}
	return m
}

// Residency elision must change only the Actual clock domain: outputs
// and charged Stats are bit-identical to a run without Resident, while
// Actual drops exactly the elided transfers.
func TestResidencyElisionChargedIdenticalActualReduced(t *testing.T) {
	g, in := edgeGraph(t, 24, 20, 5)
	const capacity = 1400
	if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Heuristic(g, capacity)
	if err != nil {
		t.Fatal(err)
	}
	spec := gpu.Custom("test", capacity*6)
	res, err := sched.AnalyzeResidency(plan, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shareable) == 0 {
		t.Fatal("expected shareable buffers in the split edge template")
	}

	base, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: gpu.New(spec)})
	if err != nil {
		t.Fatal(err)
	}
	elided, err := Run(context.Background(), g, plan, in, Options{
		Mode: Materialized, Device: gpu.New(spec), Resident: shareableSet(res)})
	if err != nil {
		t.Fatal(err)
	}

	if base.Stats != elided.Stats {
		t.Fatalf("charged stats changed under elision:\nbase   %+v\nelided %+v", base.Stats, elided.Stats)
	}
	for id, w := range base.Outputs {
		if !elided.Outputs[id].AlmostEqual(w, 0) {
			t.Fatalf("output %d differs under elision", id)
		}
	}
	if base.Actual != base.Stats {
		t.Fatal("a run without Resident must report Actual == Stats")
	}
	if elided.ElidedH2DCalls == 0 || elided.ElidedH2DFloats == 0 {
		t.Fatal("no transfers were elided")
	}
	if got := elided.Actual.H2DFloats; got != elided.Stats.H2DFloats-elided.ElidedH2DFloats {
		t.Fatalf("Actual.H2DFloats = %d, want charged %d - elided %d",
			got, elided.Stats.H2DFloats, elided.ElidedH2DFloats)
	}
	if elided.Actual.H2DCalls != elided.Stats.H2DCalls-elided.ElidedH2DCalls {
		t.Fatal("Actual.H2DCalls mismatch")
	}
	if elided.Actual.TotalTime() >= elided.Stats.TotalTime() {
		t.Fatalf("Actual time %g should be under charged %g",
			elided.Actual.TotalTime(), elided.Stats.TotalTime())
	}
	if elided.Actual.TransferTime < 0 {
		t.Fatal("Actual.TransferTime went negative")
	}
	// Non-shareable volumes are untouched.
	if elided.Actual.D2HFloats != elided.Stats.D2HFloats ||
		elided.Actual.ComputeTime != elided.Stats.ComputeTime ||
		elided.Actual.SyncTime != elided.Stats.SyncTime {
		t.Fatal("elision touched a non-H2D stat bucket")
	}
}

// The resilient executor with residency and no faults must match plain
// Run exactly in both clock domains.
func TestResidencyResilientCleanMatchesRun(t *testing.T) {
	g, in := edgeGraph(t, 24, 20, 5)
	const capacity = 1400
	if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Heuristic(g, capacity)
	if err != nil {
		t.Fatal(err)
	}
	spec := gpu.Custom("test", capacity*6)
	res, err := sched.AnalyzeResidency(plan, spec)
	if err != nil {
		t.Fatal(err)
	}
	resident := shareableSet(res)

	plain, err := Run(context.Background(), g, plan, in,
		Options{Mode: Materialized, Device: gpu.New(spec), Resident: resident})
	if err != nil {
		t.Fatal(err)
	}
	resil, err := Run(context.Background(), g, plan, in, Options{
		Mode: Materialized, Device: gpu.New(spec), Resident: resident,
		Resilient: &Resilience{}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats != resil.Stats || plain.Actual != resil.Actual {
		t.Fatalf("resilient clean run diverged:\nplain  %+v / %+v\nresil  %+v / %+v",
			plain.Stats, plain.Actual, resil.Stats, resil.Actual)
	}
	if !resil.Recovery.Clean() {
		t.Fatal("unexpected recovery actions")
	}
}
