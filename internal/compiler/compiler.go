// Package compiler is the pass-manager core of the framework's compile
// path. The paper's pipeline (Fig. 4: operator splitting → scheduling →
// transfer inference → verification → code generation) is expressed as an
// ordered sequence of passes over a shared Compilation context, run by a
// Pipeline that provides uniform per-pass observability spans, timing
// metrics, and error wrapping. Structuring compilation this way — the
// shape Halide-style schedulers and modern ML compilers converged on —
// is what lets plan caching (Cache), concurrent candidate compilation
// (core.AutoTuneSplit), and future planner passes drop in without
// touching the driver.
package compiler

import (
	"context"
	"fmt"
	"time"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/sched"
	"repro/internal/split"
)

// Compilation is the shared context one pipeline run threads through its
// passes: the graph being compiled (mutated in place by the split pass),
// the device and memory budgets, and the artifacts passes produce — the
// split result, the execution plan, planner status, and diagnostics.
type Compilation struct {
	// Graph is the operator graph under compilation. The split pass
	// rewrites it in place; later passes treat it as read-only.
	Graph *graph.Graph
	// Device is the GPU the compilation targets.
	Device gpu.Spec
	// Capacity is the planner memory budget in floats. Scheduling and
	// verification always use it.
	Capacity int64
	// SplitTarget is the per-operator footprint budget the split pass
	// enforces. Equal to Capacity in a plain compile; auto-tuning probes
	// reduced targets (Capacity/2, Capacity/4) on cloned graphs.
	SplitTarget int64
	// Obs receives per-pass spans and metrics. Nil is the free disabled
	// state.
	Obs *obs.Observer

	// PoolSpecs is the device pool a partitioned compilation targets
	// (core.CompilePartitioned); single-device compiles leave it nil.
	PoolSpecs []gpu.Spec

	// Split is the split pass's report.
	Split split.Result
	// Plan is the execution plan a scheduling pass produced.
	Plan *sched.Plan
	// Partition is the partition pass's artifact: one per-device plan per
	// pool member plus the cross-device edges joining them. Set instead of
	// Plan when the pipeline schedules across PoolSpecs.
	Partition *sched.PartitionedPlan
	// Residency is the residency pass's artifact: the plan's read-only-
	// shareable buffer set and rolling-admission shape (lead/tail).
	Residency *sched.Residency
	// PBStatus is set by the PB-optimal scheduling pass.
	PBStatus pb.Result
	// Overlap records that the prefetch pass reordered the plan for
	// asynchronous DMA/compute execution.
	Overlap bool
	// Diags accumulates human-readable per-pass notes.
	Diags []string
}

// Diagf appends a formatted diagnostic note.
func (c *Compilation) Diagf(format string, args ...interface{}) {
	c.Diags = append(c.Diags, fmt.Sprintf(format, args...))
}

// Pass is one stage of the compile pipeline. Run mutates the shared
// Compilation; sp is the pass's already-open observability span for
// annotations (nil-safe, like all obs handles). Passes must be safe to
// run concurrently on distinct Compilations — any shared state belongs in
// the Compilation, not the pass.
type Pass interface {
	// Name is the pass's stable identifier; it names the pass's trace
	// span and metric labels, and is what `planview -passes` lists.
	Name() string
	Run(c *Compilation, sp *obs.Span) error
}

// Pipeline runs passes in order over one Compilation, wrapping each pass
// with a defer-closed observability span (so error paths can never leak
// an open span), a per-pass wall-time histogram, and a run counter.
type Pipeline struct {
	passes []Pass
}

// NewPipeline returns a pipeline running the given passes in order.
func NewPipeline(passes ...Pass) *Pipeline {
	return &Pipeline{passes: passes}
}

// Passes returns the pass names in execution order.
func (p *Pipeline) Passes() []string {
	out := make([]string, len(p.passes))
	for i, pass := range p.passes {
		out[i] = pass.Name()
	}
	return out
}

// Run executes every pass in order, stopping at the first error. Errors
// are wrapped with the failing pass's name; spans and metrics are
// finalized on every path. Cancellation is checked before each pass:
// when ctx expires the pipeline stops between passes with an error
// wrapping ctx.Err(), leaving no span open.
func (p *Pipeline) Run(ctx context.Context, c *Compilation) error {
	for _, pass := range p.passes {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("compiler: cancelled before pass %s: %w", pass.Name(), err)
		}
		if err := p.runPass(pass, c); err != nil {
			return err
		}
	}
	return nil
}

func (p *Pipeline) runPass(pass Pass, c *Compilation) (err error) {
	o := c.Obs
	name := pass.Name()
	sp := o.T().Begin(name, "compile")
	start := time.Now()
	defer func() {
		// The deferred End is what makes leaked spans on error paths
		// structurally impossible: whatever path Run takes out of the
		// pass — including a panic unwinding — the span closes.
		sp.End()
		o.M().Counter("compiler.pass.runs", "pass", name).Inc()
		o.M().Histogram("compiler.pass.seconds", "pass", name).
			Observe(time.Since(start).Seconds())
		if err != nil {
			o.M().Counter("compiler.pass.errors", "pass", name).Inc()
			err = fmt.Errorf("compiler: %s: %w", name, err)
		}
	}()
	return pass.Run(c, sp)
}
