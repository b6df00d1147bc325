package compiler

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/sched"
	"repro/internal/split"
)

// SplitPass is the operator-splitting pass (paper §3.2): it makes every
// operator's footprint fit c.SplitTarget. Splitting rewrites args in
// place (split.Apply), so the pass clones c.Graph first and points
// c.Graph at the rewritten clone — and only when some node is over the
// target: a graph that already fits is passed on as it is, uncopied, and
// the graph a compile was given is never edited either way.
type SplitPass struct{}

// Name implements Pass.
func (SplitPass) Name() string { return "split" }

// Run implements Pass.
func (SplitPass) Run(c *Compilation, sp *obs.Span) error {
	sp.SetArgf("target_floats", "%d", c.SplitTarget)
	// One scan round that finds nothing to split: what split.Apply
	// reports for a graph it leaves alone.
	res := split.Result{Rounds: 1}
	var err error
	if c.SplitTarget <= 0 || !split.Feasible(c.Graph, c.SplitTarget) {
		g := c.Graph.Clone()
		if res, err = split.Apply(g, split.Options{Capacity: c.SplitTarget, Obs: c.Obs}); err == nil {
			c.Graph = g
		}
	}
	sp.SetArgf("nodes_split", "%d", res.SplitNodes).
		SetArgf("parts_created", "%d", res.PartsCreated)
	if err != nil {
		return fmt.Errorf("operator splitting: %w", err)
	}
	c.Split = res
	c.Diagf("split: %d nodes split into %d parts (target %d floats)",
		res.SplitNodes, res.PartsCreated, c.SplitTarget)
	return nil
}

// ValidatePass re-validates the graph after splitting: region coverage,
// dangling buffers, shape consistency.
type ValidatePass struct{}

// Name implements Pass.
func (ValidatePass) Name() string { return "validate" }

// Run implements Pass.
func (ValidatePass) Run(c *Compilation, sp *obs.Span) error {
	if err := c.Graph.Validate(); err != nil {
		return fmt.Errorf("split graph invalid: %w", err)
	}
	return nil
}

// HeuristicPass is the paper's scalable default planner (§3.3.1):
// depth-first operator schedule plus latest-time-of-use transfers.
type HeuristicPass struct{}

// Name implements Pass.
func (HeuristicPass) Name() string { return "schedule:heuristic" }

// Run implements Pass.
func (HeuristicPass) Run(c *Compilation, sp *obs.Span) error {
	plan, err := sched.HeuristicWithOptions(c.Graph, sched.Options{Capacity: c.Capacity, Obs: c.Obs})
	if err != nil {
		return fmt.Errorf("heuristic scheduling: %w", err)
	}
	c.Plan = plan
	return nil
}

// BaselinePass reproduces the paper's comparison baseline: per operator,
// copy inputs in, execute, copy outputs back.
type BaselinePass struct{}

// Name implements Pass.
func (BaselinePass) Name() string { return "schedule:baseline" }

// Run implements Pass.
func (BaselinePass) Run(c *Compilation, sp *obs.Span) error {
	plan, err := sched.Baseline(c.Graph, c.Capacity)
	if err != nil {
		return fmt.Errorf("baseline scheduling: %w", err)
	}
	c.Plan = plan
	return nil
}

// PBPass solves the Fig. 5 pseudo-Boolean formulation exactly, warm-
// started from the heuristic plan; feasible only for small templates.
type PBPass struct {
	// MaxConflicts bounds each solver call (0 = unlimited); on
	// exhaustion the best plan found so far wins.
	MaxConflicts int64
}

// Name implements Pass.
func (PBPass) Name() string { return "schedule:pb-optimal" }

// Run implements Pass.
func (p PBPass) Run(c *Compilation, sp *obs.Span) error {
	o := c.Obs
	wsp := o.T().Begin("pb:warm-start", "compile")
	warm, err := sched.HeuristicWithOptions(c.Graph, sched.Options{Capacity: c.Capacity, Obs: o})
	wsp.End()
	if err != nil {
		return fmt.Errorf("heuristic warm start: %w", err)
	}
	fsp := o.T().Begin("pb:formulate", "compile")
	f, err := pb.Formulate(c.Graph, c.Capacity)
	fsp.End()
	if err != nil {
		return fmt.Errorf("PB formulation: %w", err)
	}
	f.SetObserver(o)
	res, err := f.Minimize(warm.TotalTransferFloats(), p.MaxConflicts)
	if err != nil {
		return fmt.Errorf("PB optimization: %w", err)
	}
	c.PBStatus = res.Status
	if res.Plan != nil && res.Cost <= warm.TotalTransferFloats() {
		c.Plan = res.Plan
	} else {
		c.Plan = warm // budget ran out before beating the heuristic
		c.Diagf("pb: conflict budget exhausted, kept heuristic plan")
	}
	return nil
}

// PartitionPass cuts the (post-split) graph across the pool in
// c.PoolSpecs, in place of a single-device scheduling pass. Three
// candidate assignments compete on modeled joined makespan: spatial row
// striping (sched.PartitionStripeAssign — contiguous throughput-weighted
// stripes whose cut is the halo exchange at stripe boundaries),
// chain clustering (sched.PartitionChainAssign — single-consumer
// pipelines coarsen into clusters spread LPT-greedy, so the cut is only
// the fan-out layer boundaries), and HEFT-style earliest-finish
// placement (sched.PartitionAssign — wins on graphs with independent
// branches and neither spatial extent nor chains to exploit).
// Each candidate gets one ordinary per-device transfer plan under each
// spec's planner capacity and explicit cross-device edges staged through
// the host (sched.BuildPartition — which also verifies every part and
// its step DAG). The better artifact lands in c.Partition;
// c.Plan stays nil.
type PartitionPass struct{}

// Name implements Pass.
func (PartitionPass) Name() string { return "partition" }

// Run implements Pass.
func (PartitionPass) Run(c *Compilation, sp *obs.Span) error {
	if len(c.PoolSpecs) < 2 {
		return fmt.Errorf("graph partitioning: needs a pool of at least 2 devices, got %d", len(c.PoolSpecs))
	}
	type candidate struct {
		name string
		pp   *sched.PartitionedPlan
		ms   float64
	}
	var best *candidate
	var firstErr error
	try := func(name string, assign []int) {
		pp, err := sched.BuildPartition(c.Graph, assign, c.PoolSpecs, sched.Options{Obs: c.Obs})
		if err == nil {
			var ms float64
			if ms, err = pp.Makespan(); err == nil {
				if best == nil || ms < best.ms {
					best = &candidate{name, pp, ms}
				}
				return
			}
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if assign, ok := sched.PartitionStripeAssign(c.Graph, c.PoolSpecs); ok {
		try("stripe", assign)
	}
	if assign, ok := sched.PartitionChainAssign(c.Graph, c.PoolSpecs); ok {
		try("chain", assign)
	}
	try("heft", sched.PartitionAssign(c.Graph, c.PoolSpecs))
	if best == nil {
		return fmt.Errorf("graph partitioning: %w", firstErr)
	}
	pp, ms := best.pp, best.ms
	c.Partition = pp
	sp.SetArgf("parts", "%d", len(pp.Parts)).
		SetArgf("assignment", "%s", best.name).
		SetArgf("cut_edges", "%d", len(pp.Edges)).
		SetArgf("cut_floats", "%d", pp.CutFloats()).
		SetArgf("makespan_sec", "%.6g", ms)
	c.Diagf("partition: %d parts across %d devices by %s assignment, %d cut edges (%d floats), modeled makespan %.3gs",
		len(pp.Parts), len(c.PoolSpecs), best.name, len(pp.Edges), pp.CutFloats(), ms)
	return nil
}

// PrefetchPass reorders the plan's H2D copies as early as memory allows
// for asynchronous DMA/compute overlap (§3.3.2). Only assembled for
// devices that support AsyncTransfer.
type PrefetchPass struct{}

// Name implements Pass.
func (PrefetchPass) Name() string { return "prefetch" }

// Run implements Pass.
func (PrefetchPass) Run(c *Compilation, sp *obs.Span) error {
	// Keep a prefetch reserve: raising the residency high-watermark
	// raises fragmentation pressure in the first-fit allocator.
	c.Plan = sched.PrefetchH2D(c.Plan, c.Capacity*9/10)
	c.Overlap = true
	return nil
}

// ResidencyPass classifies the plan's buffers into read-only-shareable
// and transient sets and extracts the rolling-admission lead/tail shape
// (sched.AnalyzeResidency). It runs after any plan reordering (the
// lead/tail analysis depends on final step order) and before
// verification. The artifact is advisory: executions ignore it unless a
// serving layer opts into residency elision.
type ResidencyPass struct{}

// Name implements Pass.
func (ResidencyPass) Name() string { return "residency" }

// Run implements Pass.
func (ResidencyPass) Run(c *Compilation, sp *obs.Span) error {
	r, err := sched.AnalyzeResidency(c.Plan, c.Device)
	if err != nil {
		return fmt.Errorf("residency analysis: %w", err)
	}
	c.Residency = r
	sp.SetArgf("shareable_buffers", "%d", len(r.Shareable)).
		SetArgf("shared_bytes", "%d", r.SharedBytes).
		SetArgf("transient_peak_bytes", "%d", r.TransientPeakBytes)
	c.Diagf("residency: %d shareable buffers (%d B pinned-capable), transient peak %d B, %d lead H2Ds, tail %.3gs",
		len(r.Shareable), r.SharedBytes, r.TransientPeakBytes, len(r.LeadSteps), r.TailSec)
	return nil
}

// VerifyPass statically checks the plan against every executor invariant
// at the planner capacity — the gate before a plan is cached or executed.
type VerifyPass struct{}

// Name implements Pass.
func (VerifyPass) Name() string { return "verify" }

// Run implements Pass.
func (VerifyPass) Run(c *Compilation, sp *obs.Span) error {
	if err := sched.Verify(c.Graph, c.Plan, c.Capacity); err != nil {
		return fmt.Errorf("plan verification: %w", err)
	}
	return nil
}
