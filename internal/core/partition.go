// Cross-device partitioned compilation: the pool-aware compile path for
// templates too large for any single in-rotation device. The engine
// splits the graph to the smallest pool member's budget, cuts it across
// the pool (compiler.PartitionPass), and packages a PartitionedCompiled
// artifact whose Run lowers onto exec.RunPartitioned — per-device
// executor streams joined at the cut buffers' transfer boundaries.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/split"
)

// PartitionedCompiled is a template compiled across a device pool: the
// (split) operator graph and a partitioned plan — one per-device plan
// per pool member plus explicit cross-device edges.
type PartitionedCompiled struct {
	Graph     *graph.Graph
	Partition *sched.PartitionedPlan
	// Specs are the pool devices the partition targets, indexed parallel
	// to Partition.Parts.
	Specs []gpu.Spec
	Split split.Result
	// Makespan is the modeled joined completion time; CutFloats the float
	// volume crossing device boundaries.
	Makespan  float64
	CutFloats int64
	// Obs carries the compile observer into Run, so one trace spans
	// compile and execution; Faults is installed on devices Run creates.
	Obs    *obs.Observer
	Faults *gpu.Injector
	// Diags are the pipeline's human-readable per-pass notes.
	Diags []string
}

// CompilePartitioned compiles g cut across the device pool in specs:
// schedule-bind, operator splitting to the smallest member's planner
// capacity, validation, then the partition pass (assignment, per-part
// scheduling and verification, cross-device edges). Config.Device is
// ignored — the pool is the target. Like Service.Compile, it never mutates g:
// read the split graph from PartitionedCompiled.Graph. An infeasible
// template — an operator no split fits under the smallest member, or a
// partition stripe that comes up empty — fails with an error matching
// errors.Is(err, ErrInfeasible).
func (e *Engine) CompilePartitioned(ctx context.Context, g *graph.Graph, specs []gpu.Spec) (*PartitionedCompiled, error) {
	return e.compilePartitionedObs(ctx, e.cfg.Obs, g, specs)
}

// compilePartitionedObs is CompilePartitioned with an explicit observer,
// so Service can run concurrent compiles under forked observers.
func (e *Engine) compilePartitionedObs(ctx context.Context, o *obs.Observer, g *graph.Graph, specs []gpu.Spec) (*PartitionedCompiled, error) {
	if len(specs) < 2 {
		return nil, fmt.Errorf("core: partitioned compile needs a pool of at least 2 devices, got %d", len(specs))
	}
	minCap := specs[0].PlannerCapacity()
	for _, s := range specs[1:] {
		if c := s.PlannerCapacity(); c < minCap {
			minCap = c
		}
	}
	// A Config.Capacity override caps the split target the same way it
	// caps a single-device compile, so a pool constrained for testing
	// stays constrained on the partitioned path too.
	if e.cfg.Capacity > 0 && e.cfg.Capacity < minCap {
		minCap = e.cfg.Capacity
	}
	csp := o.T().Begin("compile:partitioned", "compile").
		SetArgf("devices", "%d", len(specs)).
		SetArgf("split_target_floats", "%d", minCap)
	defer csp.End()
	c := &compiler.Compilation{
		Graph: g, Device: specs[0], Capacity: minCap, SplitTarget: minCap,
		PoolSpecs: specs, Obs: o,
	}
	pipeline := compiler.NewPipeline(
		compiler.ScheduleBindPass{Schedule: e.cfg.Schedule},
		compiler.SplitPass{},
		compiler.ValidatePass{},
		compiler.PartitionPass{},
	)
	if err := pipeline.Run(ctx, c); err != nil {
		if errors.Is(err, sched.ErrInfeasible) || errors.Is(err, split.ErrInfeasible) {
			return nil, fmt.Errorf("core: %w: %w", ErrInfeasible, err)
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	ms, err := c.Partition.Makespan()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &PartitionedCompiled{
		Graph: c.Graph, Partition: c.Partition, Specs: specs,
		Split: c.Split, Makespan: ms, CutFloats: c.Partition.CutFloats(),
		Obs: o, Faults: e.cfg.Faults, Diags: c.Diags,
	}, nil
}

// NewDevices returns fresh simulated devices matching the partition's
// specs, with the artifact's fault injector (if any) installed on each.
func (pc *PartitionedCompiled) NewDevices() []*gpu.Device {
	devs := make([]*gpu.Device, len(pc.Specs))
	for i, s := range pc.Specs {
		devs[i] = gpu.New(s)
		devs[i].SetInjector(pc.Faults)
	}
	return devs
}

// Run executes the partition on fresh devices under the selected
// RunOptions. Inputs/Simulate select materialized vs accounting mode and
// Resident the pinned set, exactly as for a single-device artifact;
// Resilient is rejected (partitioned execution has no checkpoint driver —
// a serving pool handles member failure by aborting and re-placing the
// whole gang) and Sink is honored by Service.RunPartitioned only.
func (pc *PartitionedCompiled) Run(ctx context.Context, opt RunOptions) (*exec.PartitionReport, error) {
	return pc.RunOn(ctx, pc.NewDevices(), opt)
}

// RunOn executes the partition on caller-supplied devices — a serving
// pool's gang members — which must match the partition's specs part by
// part and be pristine. See Run for option semantics.
func (pc *PartitionedCompiled) RunOn(ctx context.Context, devs []*gpu.Device, opt RunOptions) (*exec.PartitionReport, error) {
	if opt.Resilient {
		return nil, errors.New("core: partitioned execution cannot honor RunOptions.Resilient")
	}
	eo := exec.Options{Mode: exec.Materialized, Obs: pc.Obs, Resident: opt.Resident}
	in := opt.Inputs
	if opt.Simulate {
		eo.Mode = exec.Accounting
		in = nil
	}
	return exec.RunPartitioned(ctx, pc.Graph, pc.Partition, devs, in, eo)
}
