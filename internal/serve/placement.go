// Placement arity is data: every job is placed on k ≥ 1 member devices
// (k = 1 the ordinary job, k > 1 a cross-device gang) and pool.go's one
// path serves every k. This file holds what a placement is made of: the
// Placement reported on job status, the artifact a candidate member set
// compiles to — per-member ledger shares plus the closure that executes
// it, the one place that knows which core entry point runs which arity —
// and the GangStats tally.
package serve

import (
	"context"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Placement is where a job's memory lives: one entry per device with the
// bytes reserved there, parallel slices. Single-device jobs have exactly
// one entry; gang (partitioned) jobs one per member, in partition-part
// order. The zero value means "not placed yet".
type Placement struct {
	Devices []string `json:"devices"`
	Bytes   []int64  `json:"bytes"`
}

// Primary returns the placement's first device — the only one for a
// single-device job, the gang leader otherwise ("" when unplaced).
func (pl Placement) Primary() string {
	if len(pl.Devices) == 0 {
		return ""
	}
	return pl.Devices[0]
}

// String renders "c870+8800gtx"-style labels for traces and logs.
func (pl Placement) String() string { return strings.Join(pl.Devices, "+") }

// workingSetBytes is the template's whole-graph working set: the summed
// bytes of every live root buffer — what a single device must page
// through the bus when it exceeds physical memory. Admission prefers a
// gang whenever this exceeds the largest in-rotation device's memory.
func workingSetBytes(g *graph.Graph) int64 {
	seen := make(map[int]bool)
	var total int64
	for _, b := range g.LiveBuffers() {
		root := b.Root
		if !seen[root.ID] {
			seen[root.ID] = true
			total += root.Bytes()
		}
	}
	return total
}

// artifact is a placement's compiled plan in the arity-free form the
// pool's one path consumes.
type artifact struct {
	// shares are the bytes to reserve on each member, in member order.
	shares []int64
	// residency is the plan's shareable set and rolling-admission shape;
	// nil when the artifact carries no residency analysis (partitioned
	// artifacts, i.e. k > 1, today), which turns the pinned-set grant and
	// rolling admission off for the batch.
	residency *sched.Residency
	// kind labels the batch on its worker lane: "batch" or "gang".
	kind string
	// tally is the GangStats accounting the batch feeds (nil for k = 1).
	tally *gangTally
	// run executes the artifact once on fresh simulated devices.
	run func(ctx context.Context, opt core.RunOptions) (outcome, error)
}

// outcome is one execution's result.
type outcome struct {
	// rep is the job's report: the execution's own, or the combined
	// per-part aggregate of a partitioned one.
	rep *exec.Report
	// parts is the per-part detail of a partitioned execution (nil for
	// k = 1), indexed parallel to the batch's members.
	parts *exec.PartitionReport
	// span is the modeled seconds the leader's worker stream was occupied
	// by a successful execution: the report's actual (elision-aware) time,
	// or the joined makespan of concurrently running parts.
	span float64
	// wall is the execution's host wall time, set by the pool's run.
	wall time.Duration
}

// compile compiles g for a placement on members (through the first
// member's core.Service, so identical placements share one compile via
// its single-flight caches).
func (p *Pool) compile(ctx context.Context, g *graph.Graph, members []*device) (*artifact, bool, error) {
	svc := members[0].svc
	// Arity branch 1 of 3 — which artifact a placement compiles to and
	// which entry point executes it: one device runs a core.Compiled under
	// the resilient driver; several run a core.PartitionedCompiled, one
	// part per member, which has no resilient driver (member failure is
	// handled by re-placing the whole batch).
	if len(members) == 1 {
		c, hit, err := svc.Compile(ctx, g)
		if err != nil {
			return nil, hit, err
		}
		return &artifact{
			shares: []int64{c.Plan.PeakFloats * 4}, residency: c.Residency, kind: "batch",
			run: func(ctx context.Context, opt core.RunOptions) (outcome, error) {
				opt.Resilient = true
				rep, err := svc.Run(ctx, c, opt)
				out := outcome{rep: rep}
				if err == nil {
					out.span = rep.Actual.TotalTime()
				}
				return out, err
			},
		}, hit, nil
	}
	specs := make([]gpu.Spec, len(members))
	for i, m := range members {
		specs[i] = m.spec
	}
	pc, hit, err := svc.CompilePartitioned(ctx, g, specs)
	if err != nil {
		return nil, hit, err
	}
	shares := make([]int64, len(members))
	for i, part := range pc.Partition.Parts {
		shares[i] = part.Plan.PeakFloats * 4
	}
	return &artifact{
		shares: shares, kind: "gang", tally: &p.gangs,
		run: func(ctx context.Context, opt core.RunOptions) (outcome, error) {
			// Fresh member devices, each with its pool-configured fault
			// injector — the per-execution device lifecycle svc.Run gives a
			// single device.
			devs := make([]*gpu.Device, len(members))
			for i, m := range members {
				devs[i] = gpu.New(m.spec)
				devs[i].SetInjector(p.cfg.faults[m.spec.Name])
			}
			pr, err := svc.RunPartitioned(ctx, pc, devs, opt)
			if pr == nil {
				return outcome{}, err
			}
			if err == nil {
				p.gangs.cutFloats.Add(pr.CutFloats)
			}
			return outcome{rep: pr.Combined(), parts: pr, span: pr.Makespan}, err
		},
	}, hit, nil
}

// GangStats is the pool-wide cross-device gang scheduling summary:
// all-zero until some template needed more than one device.
type GangStats struct {
	// Placed counts gang batches enqueued (fresh submissions and
	// re-placements alike); Completed/Failed count jobs settled through
	// gang execution.
	Placed    int64 `json:"placed"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Aborted counts gang executions torn down by a member's terminal
	// device fault — the whole gang is re-placed, not just the faulty
	// part.
	Aborted int64 `json:"aborted"`
	// CutFloats accumulates the cross-device float traffic of every
	// successful gang execution.
	CutFloats int64 `json:"cut_floats"`
}

// gangTally is GangStats' accounting. compile hands it to k > 1 artifacts
// only; its methods are nil-safe (like the tracer, SLO board and flight
// recorder), so the one pool path tallies unconditionally and only gangs
// count.
type gangTally struct {
	obs                                           *obs.Observer
	placed, completed, failed, aborted, cutFloats atomic.Int64
}

func (t *gangTally) notePlaced() {
	if t != nil {
		t.placed.Add(1)
		metricInc(t.obs, metricGangPlaced)
	}
}

func (t *gangTally) noteAborted() {
	if t != nil {
		t.aborted.Add(1)
		metricInc(t.obs, metricGangAborted)
	}
}

// noteSettled counts one job settled through a gang execution.
func (t *gangTally) noteSettled(err error) {
	switch {
	case t == nil:
	case err == nil:
		t.completed.Add(1)
	default:
		t.failed.Add(1)
	}
}

func (t *gangTally) stats() GangStats {
	return GangStats{
		Placed: t.placed.Load(), Completed: t.completed.Load(), Failed: t.failed.Load(),
		Aborted: t.aborted.Load(), CutFloats: t.cutFloats.Load(),
	}
}
