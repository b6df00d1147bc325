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
)

// partitionSpecs mirrors the sched package's scaled-down two-card pool:
// C870-class constants with tiny, unequal memories, so the test CNN
// genuinely needs splitting and striping.
func partitionSpecs() []gpu.Spec {
	return []gpu.Spec{
		gpu.Custom("mini-A", 3<<20),
		gpu.Custom("mini-B", 2<<20),
	}
}

// partitionFixture builds a split CNN graph, its inputs, and a
// partitioned plan over the two mini devices.
func partitionFixture(t *testing.T) (*graph.Graph, Inputs, *sched.PartitionedPlan, []gpu.Spec) {
	t.Helper()
	specs := partitionSpecs()
	g, in := cnnGraph(t, 512, 384)
	minCap := specs[0].PlannerCapacity()
	for _, s := range specs[1:] {
		if c := s.PlannerCapacity(); c < minCap {
			minCap = c
		}
	}
	if _, err := split.Apply(g, split.Options{Capacity: minCap}); err != nil {
		t.Fatal(err)
	}
	assign := sched.PartitionAssign(g, specs)
	pp, err := sched.BuildPartition(g, assign, specs, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, in, pp, specs
}

func newPartDevices(specs []gpu.Spec) []*gpu.Device {
	devs := make([]*gpu.Device, len(specs))
	for i, s := range specs {
		devs[i] = gpu.New(s)
	}
	return devs
}

// TestRunPartitionedBitIdentity is the tentpole acceptance check at test
// scale: a CNN executed across two devices must produce outputs
// bit-identical to the same (split) graph executed on one large device,
// with zero OOM and both devices left pristine.
func TestRunPartitionedBitIdentity(t *testing.T) {
	g, in, pp, specs := partitionFixture(t)

	// Single-device reference: same split graph, plan for one device
	// large enough to hold everything.
	refSpec := gpu.Custom("ref", 1<<30)
	refPlan, err := sched.Heuristic(g, refSpec.PlannerCapacity())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(context.Background(), g, refPlan, in, Options{
		Mode: Materialized, Device: gpu.New(refSpec),
	})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	devs := newPartDevices(specs)
	pr, err := RunPartitioned(context.Background(), g, pp, devs, in, Options{Mode: Materialized})
	if err != nil {
		t.Fatalf("partitioned run: %v", err)
	}

	if len(pr.Outputs) != len(ref.Outputs) {
		t.Fatalf("output count differs: partitioned %d, reference %d", len(pr.Outputs), len(ref.Outputs))
	}
	for id, w := range ref.Outputs {
		if !pr.Outputs[id].Equal(w) {
			t.Fatalf("output %d not bit-identical across the cut (max diff %v)",
				id, pr.Outputs[id].MaxAbsDiff(w))
		}
	}
	if pr.Makespan <= 0 {
		t.Fatalf("modeled makespan = %g", pr.Makespan)
	}
	if pr.CutFloats <= 0 {
		t.Fatalf("cut floats = %d for a connected partitioned graph", pr.CutFloats)
	}
	for p, d := range devs {
		if used := d.Allocator().UsedBytes(); used != 0 {
			t.Errorf("device %d leaked %d bytes", p, used)
		}
		if pr.Parts[p].PeakResidentBytes > specs[p].MemoryBytes {
			t.Errorf("part %d peak %d exceeds device memory %d",
				p, pr.Parts[p].PeakResidentBytes, specs[p].MemoryBytes)
		}
	}
}

// TestRunPartitionedDeterministicStats asserts the per-device charged
// statistics do not depend on how the part goroutines interleaved: two
// runs of the same partitioned plan must report identical per-part Stats.
func TestRunPartitionedDeterministicStats(t *testing.T) {
	g, in, pp, specs := partitionFixture(t)
	first, err := RunPartitioned(context.Background(), g, pp, newPartDevices(specs), in, Options{Mode: Materialized})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunPartitioned(context.Background(), g, pp, newPartDevices(specs), in, Options{Mode: Materialized})
	if err != nil {
		t.Fatal(err)
	}
	for p := range first.Parts {
		if !reflect.DeepEqual(first.Parts[p].Stats, second.Parts[p].Stats) {
			t.Errorf("part %d stats differ across runs:\nfirst  %+v\nsecond %+v",
				p, first.Parts[p].Stats, second.Parts[p].Stats)
		}
		if first.Parts[p].PeakResidentBytes != second.Parts[p].PeakResidentBytes {
			t.Errorf("part %d peak differs: %d vs %d",
				p, first.Parts[p].PeakResidentBytes, second.Parts[p].PeakResidentBytes)
		}
	}
	if first.Makespan != second.Makespan {
		t.Errorf("modeled makespan differs: %g vs %g", first.Makespan, second.Makespan)
	}
}

// TestRunPartitionedAccounting replays the partition in accounting mode —
// the paper-scale path — and cross-checks it against a materialized run:
// identical charged statistics, no data.
func TestRunPartitionedAccounting(t *testing.T) {
	g, in, pp, specs := partitionFixture(t)
	acc, err := RunPartitioned(context.Background(), g, pp, newPartDevices(specs), nil, Options{Mode: Accounting})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Outputs != nil {
		t.Fatal("accounting run produced outputs")
	}
	mat, err := RunPartitioned(context.Background(), g, pp, newPartDevices(specs), in, Options{Mode: Materialized})
	if err != nil {
		t.Fatal(err)
	}
	for p := range acc.Parts {
		if !reflect.DeepEqual(acc.Parts[p].Stats, mat.Parts[p].Stats) {
			t.Errorf("part %d stats differ between accounting and materialized:\nacc %+v\nmat %+v",
				p, acc.Parts[p].Stats, mat.Parts[p].Stats)
		}
	}
}

// TestRunPartitionedCancel cancels mid-run and requires every device to
// come back pristine, so a serving pool can re-place the gang.
func TestRunPartitionedCancel(t *testing.T) {
	g, in, pp, specs := partitionFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	devs := newPartDevices(specs)
	_, err := RunPartitioned(ctx, g, pp, devs, in, Options{Mode: Materialized})
	if err == nil {
		t.Fatal("cancelled partitioned run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for p, d := range devs {
		if used := d.Allocator().UsedBytes(); used != 0 {
			t.Errorf("device %d leaked %d bytes after cancellation", p, used)
		}
	}
}

// TestRunPartitionedValidation covers the device/plan mismatch errors.
func TestRunPartitionedValidation(t *testing.T) {
	g, in, pp, specs := partitionFixture(t)
	if _, err := RunPartitioned(context.Background(), g, pp,
		[]*gpu.Device{gpu.New(specs[0])}, in, Options{Mode: Materialized}); err == nil {
		t.Error("short device list accepted")
	}
	swapped := []*gpu.Device{gpu.New(specs[1]), gpu.New(specs[0])}
	if _, err := RunPartitioned(context.Background(), g, pp, swapped, in, Options{Mode: Materialized}); err == nil {
		t.Error("spec-mismatched devices accepted")
	}
	// Options the per-part sequential driver cannot honor are named, not
	// silently dropped.
	for name, opt := range map[string]Options{
		"Pipeline":  {Pipeline: true},
		"Resilient": {Resilient: &Resilience{}},
		"Trace":     {Trace: &gpu.Trace{}},
		"WallTrace": {WallTrace: &gpu.Trace{}},
	} {
		_, err := RunPartitioned(context.Background(), g, pp, newPartDevices(specs), in, opt)
		if err == nil || !strings.Contains(err.Error(), "Options."+name) {
			t.Errorf("%s: err = %v, want an error naming the option", name, err)
		}
	}
}
