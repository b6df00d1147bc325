package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/templates"
	"repro/internal/workload"
)

// miniPool is a two-card pool small enough that the test CNN needs both
// splitting and striping.
func miniPool() []gpu.Spec {
	return []gpu.Spec{
		gpu.Custom("mini-A", 3<<20),
		gpu.Custom("mini-B", 2<<20),
	}
}

func cnnForPartition(t *testing.T) (*PartitionedCompiled, exec.Inputs) {
	t.Helper()
	g, bufs, err := templates.CNN(templates.SmallCNN(512, 384))
	if err != nil {
		t.Fatal(err)
	}
	in := workload.CNNInputs(bufs, 7)
	eng := NewEngine(Config{})
	pc, err := eng.CompilePartitioned(context.Background(), g, miniPool())
	if err != nil {
		t.Fatal(err)
	}
	return pc, in
}

// TestCompilePartitionedEndToEnd compiles a CNN across the mini pool and
// checks the artifact: every part planned under its own capacity, cross
// edges present, modeled makespan positive, outputs bit-identical to a
// single-device compile of the same template on a device large enough to
// hold it.
func TestCompilePartitionedEndToEnd(t *testing.T) {
	pc, in := cnnForPartition(t)
	if len(pc.Partition.Parts) != 2 {
		t.Fatalf("parts = %d", len(pc.Partition.Parts))
	}
	if pc.CutFloats <= 0 || pc.Makespan <= 0 {
		t.Fatalf("cut=%d makespan=%g", pc.CutFloats, pc.Makespan)
	}
	rep, err := pc.Run(context.Background(), RunOptions{Inputs: in})
	if err != nil {
		t.Fatal(err)
	}

	// Single-device reference: same template, one big device.
	g2, bufs2, err := templates.CNN(templates.SmallCNN(512, 384))
	if err != nil {
		t.Fatal(err)
	}
	in2 := workload.CNNInputs(bufs2, 7)
	big := NewEngine(Config{Device: gpu.Custom("big", 1<<30)})
	c2, err := big.Compile(context.Background(), g2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c2.Run(context.Background(), RunOptions{Inputs: in2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outputs) != len(ref.Outputs) {
		t.Fatalf("output count: partitioned %d, reference %d", len(rep.Outputs), len(ref.Outputs))
	}
	for id, w := range ref.Outputs {
		if !rep.Outputs[id].AlmostEqual(w, 1e-4) {
			t.Fatalf("output %d differs by %v", id, rep.Outputs[id].MaxAbsDiff(w))
		}
	}
}

// TestCompilePartitionedSimulate checks the accounting path and that the
// per-part charged stats match the materialized run's.
func TestCompilePartitionedSimulate(t *testing.T) {
	pc, in := cnnForPartition(t)
	acc, err := pc.Run(context.Background(), RunOptions{Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Outputs != nil {
		t.Fatal("simulate produced outputs")
	}
	mat, err := pc.Run(context.Background(), RunOptions{Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	for p := range acc.Parts {
		if acc.Parts[p].Stats != mat.Parts[p].Stats {
			t.Errorf("part %d stats differ:\nacc %+v\nmat %+v", p, acc.Parts[p].Stats, mat.Parts[p].Stats)
		}
	}
	// There is no partitioned checkpoint driver: Resilient is rejected by
	// name rather than dropped.
	if _, err := pc.Run(context.Background(), RunOptions{Simulate: true, Resilient: true}); err == nil ||
		!strings.Contains(err.Error(), "RunOptions.Resilient") {
		t.Fatalf("resilient partitioned run: err = %v, want a rejection naming RunOptions.Resilient", err)
	}
}

// TestCompilePartitionedInfeasible: a graph too small to stripe across
// the pool must surface ErrInfeasible, the same typed verdict as a
// single-device misfit.
func TestCompilePartitionedInfeasible(t *testing.T) {
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 8, ImageW: 8, KernelSize: 3, Orientations: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Config{})
	// A huge pool member count guarantees an empty stripe.
	pool := make([]gpu.Spec, 64)
	for i := range pool {
		pool[i] = gpu.Custom("p", 1<<30)
	}
	if _, err := eng.CompilePartitioned(context.Background(), g, pool); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestServiceCompilePartitionedCache checks the partitioned compile is
// memoized per (graph, pool, config). TestCompileNeverMutatesItsInput
// covers the caller's graph.
func TestServiceCompilePartitionedCache(t *testing.T) {
	svc := NewService()
	g, _, err := templates.CNN(templates.SmallCNN(512, 384))
	if err != nil {
		t.Fatal(err)
	}
	pool := miniPool()
	pc1, hit1, err := svc.CompilePartitioned(context.Background(), g, pool)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Fatal("first compile reported a cache hit")
	}
	pc2, hit2, err := svc.CompilePartitioned(context.Background(), g, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("second compile missed the cache")
	}
	if pc1 != pc2 {
		t.Fatal("cache returned a different artifact")
	}
	// A different pool (swapped order) is a different compilation.
	swapped := []gpu.Spec{pool[1], pool[0]}
	_, hit3, err := svc.CompilePartitioned(context.Background(), g, swapped)
	if err != nil {
		t.Fatal(err)
	}
	if hit3 {
		t.Fatal("swapped pool order must not share a cache entry")
	}
}
