// Cross-device partitioned execution: one sequential step machine per
// device, all sharing one host state, joined at the partition plan's
// cross-device edges. The producing part's D2H of a cut buffer closes
// the edge's channel; the consuming part's matching H2D blocks on it
// before performing. Within a part everything is the ordinary sequential
// executor, so per-device statistics are deterministic (each device's
// charged clock depends only on its own plan order), and the shared,
// serialized host state makes materialized outputs bit-identical to a
// single-device run of the same graph.
package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
)

// PartitionReport is the result of executing a partitioned plan.
type PartitionReport struct {
	// Parts holds one ordinary execution report per device, indexed
	// parallel to the plan's parts. Each part's Stats are its device's
	// charged sequential clock — deterministic, independent of how the
	// parts interleaved on the host.
	Parts []*Report
	// Outputs are the template outputs assembled from the shared host
	// state (nil in Accounting mode). Bit-identical to a single-device
	// execution of the same graph.
	Outputs Outputs
	// Makespan is the modeled joined completion time: per-device
	// timelines replayed with every cut H2D stalled on its producer's
	// D2H (sched.PartitionedPlan.Makespan).
	Makespan float64
	// CutFloats is the float volume that crossed device boundaries.
	CutFloats int64
}

// Combined returns one report aggregating every part: summed charged and
// actual stats, the max per-device peak, and the joined outputs. The
// combined Stats.TotalTime is the sum of device-seconds across the gang;
// use PartitionReport.Makespan for the joined completion time.
func (pr *PartitionReport) Combined() *Report {
	rep := &Report{Outputs: pr.Outputs}
	for _, r := range pr.Parts {
		if r == nil {
			continue
		}
		rep.Stats.Add(r.Stats)
		rep.Actual.Add(r.Actual)
		rep.ElidedH2DFloats += r.ElidedH2DFloats
		rep.ElidedH2DCalls += r.ElidedH2DCalls
		if r.PeakResidentBytes > rep.PeakResidentBytes {
			rep.PeakResidentBytes = r.PeakResidentBytes
		}
		rep.Thrashing = rep.Thrashing || r.Thrashing
	}
	return rep
}

// PartError labels a partitioned execution failure with the part (and
// device) it originated on, so a pool can attribute the fault to one gang
// member. Unwraps to the part's own error.
type PartError struct {
	Part   int
	Device string
	Err    error
}

func (e *PartError) Error() string {
	return fmt.Sprintf("exec: partition part %d (%s): %v", e.Part, e.Device, e.Err)
}

func (e *PartError) Unwrap() error { return e.Err }

// RunPartitioned executes a cross-device partitioned plan: part p runs on
// devs[p], all parts concurrently, ordered only by the plan's cross-device
// edges. Each device must be pristine and match its part's spec.
//
// Options applies per part. Each part is a sequential step machine (drive)
// — that is what makes per-device statistics deterministic — so the
// options that select another driver or record a single-device timeline
// are rejected up front rather than dropped: Pipeline/PipelineWorkers and
// Resilient (no pipelined or checkpointing driver per part yet), Trace and
// WallTrace (one gpu.Trace has one "dma" and one "compute" lane, so k
// devices' simulated clocks would interleave on them indistinguishably).
// A non-nil Obs is forked per part without the residency profiler (cut
// buffers are resident on two devices at once, which a shared per-buffer
// profile cannot represent).
//
// On any part's failure the remaining parts are cancelled, every device
// is left pristine, and the error names the failing part; the returned
// report still carries every part's partial statistics.
func RunPartitioned(ctx context.Context, g *graph.Graph, pp *sched.PartitionedPlan, devs []*gpu.Device, in Inputs, opt Options) (*PartitionReport, error) {
	unsupported := ""
	switch {
	case opt.Pipeline || opt.PipelineWorkers != 0:
		unsupported = "Pipeline"
	case opt.Resilient != nil:
		unsupported = "Resilient"
	case opt.Trace != nil:
		unsupported = "Trace"
	case opt.WallTrace != nil:
		unsupported = "WallTrace"
	}
	if unsupported != "" {
		return nil, fmt.Errorf("exec: partitioned execution cannot honor Options.%s", unsupported)
	}
	k := len(pp.Parts)
	if len(devs) != k {
		return nil, fmt.Errorf("exec: partitioned plan has %d parts but %d devices were supplied", k, len(devs))
	}
	for p, d := range devs {
		if d == nil {
			return nil, fmt.Errorf("exec: partition part %d: nil device", p)
		}
		if d.Spec.Name != pp.Parts[p].Spec.Name {
			return nil, fmt.Errorf("exec: partition part %d was planned for %s but device is %s",
				p, pp.Parts[p].Spec.Name, d.Spec.Name)
		}
	}
	// Modeling the joined makespan up front also validates that the cross
	// edges cannot deadlock, so the channel waits below always resolve.
	makespan, err := pp.Makespan()
	if err != nil {
		return nil, err
	}

	shared := newHostState()
	// Halo duplication means two parts can copy byte-identical but
	// overlapping host regions with no cross-part ordering edge between
	// them; serializing host-array copies keeps that well-defined.
	shared.serialize = true
	if opt.Mode == Materialized {
		if err := materializeHost(shared, g, in); err != nil {
			return nil, err
		}
	}

	// One channel per cross edge, closed when the producing part has
	// performed (and accounted) its D2H step. inEdge[q][si] is the edge
	// feeding step si of part q (at most one — a cut buffer has exactly
	// one producing part); outEdges[p][si] lists the edges that D2H
	// step si of part p satisfies.
	edgeDone := make([]chan struct{}, len(pp.Edges))
	for i := range edgeDone {
		edgeDone[i] = make(chan struct{})
	}
	inEdge := make([]map[int]int, k)
	outEdges := make([]map[int][]int, k)
	for p := 0; p < k; p++ {
		inEdge[p] = make(map[int]int)
		outEdges[p] = make(map[int][]int)
	}
	for ei, e := range pp.Edges {
		inEdge[e.To][e.ToStep] = ei
		outEdges[e.From][e.FromStep] = append(outEdges[e.From][e.FromStep], ei)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	reports := make([]*Report, k)
	errs := make([]error, k)
	children := make([]*obs.Observer, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		popt := opt
		popt.Device = devs[p]
		popt.shared = shared
		child := opt.Obs.Fork()
		if child != nil {
			child.Residency = nil
		}
		popt.Obs = child
		children[p] = child

		wg.Add(1)
		go func(p int, popt Options) {
			defer wg.Done()
			e, perr := newExecutor(pp.Parts[p].Graph, pp.Parts[p].Plan, nil, popt)
			if perr == nil {
				reports[p], perr = drive(ctx, e, inEdge[p], outEdges[p], edgeDone)
			}
			if errs[p] = perr; perr != nil {
				cancel() // unblock siblings waiting on edges this part will never close
			}
		}(p, popt)
	}
	wg.Wait()
	for p := 0; p < k; p++ {
		opt.Obs.Join(children[p])
	}

	pr := &PartitionReport{
		Parts:     reports,
		Makespan:  makespan,
		CutFloats: pp.CutFloats(),
	}
	// Prefer the root cause over the cancellations it triggered in
	// sibling parts; fall back to the first error of any kind (the
	// caller's own cancellation).
	var firstErr error
	for p, perr := range errs {
		if perr != nil && !errors.Is(perr, context.Canceled) && !errors.Is(perr, context.DeadlineExceeded) {
			firstErr = &PartError{Part: p, Device: pp.Parts[p].Spec.Name, Err: perr}
			break
		}
	}
	if firstErr == nil {
		for p, perr := range errs {
			if perr != nil {
				firstErr = &PartError{Part: p, Device: pp.Parts[p].Spec.Name, Err: perr}
				break
			}
		}
	}
	if firstErr != nil {
		return pr, firstErr
	}
	if opt.Mode == Materialized {
		pr.Outputs = templateOutputs(g.OutputBuffers(), shared)
	}
	return pr, nil
}
