// Resilient plan execution: retry with exponential backoff for transient
// faults, checkpoint/restart at offload-unit boundaries for device loss,
// and a graceful-degradation ladder (replanning with a shrinking memory
// budget, final fallback to the pure-CPU reference) for persistent
// out-of-memory. With fault injection disabled the resilient executor is
// byte- and stat-identical to plain Run: checkpoints are bookkeeping-only
// snapshots and charge no simulated time.
package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/compiler"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Recovery policy. Backoff is charged to the simulated clock
// (Stats.RecoveryTime) so recovery cost shows up in the timing results.
const (
	maxRetries  = 4      // transient-fault retries per step
	baseBackoff = 1e-3   // first retry delay in simulated seconds, doubled each retry
	maxBackoff  = 100e-3 // cap on a single delay
	maxReplays  = 3      // checkpoint restarts per plan attempt
)

// ladderBudgets are the shrinking fractions of the planner capacity the
// degradation ladder replans with on persistent OOM.
var ladderBudgets = [...]float64{0.95, 0.80, 0.60}

// backoff is the simulated delay before retry attempt+1.
func backoff(attempt int) float64 {
	d := baseBackoff
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= maxBackoff {
			return maxBackoff
		}
	}
	return d
}

// Resilience configures the resilient driver selected by
// Options.Resilient. The zero value is the default.
type Resilience struct {
	// Capacity is the planner memory budget in floats used when the
	// degradation ladder replans (0 → the device's PlannerCapacity).
	Capacity int64
}

// Recovery documents every recovery action a resilient execution took.
type Recovery struct {
	// Retries counts step re-executions after transient faults.
	Retries int
	// BackoffSeconds is the total simulated retry backoff charged.
	BackoffSeconds float64
	// Replays counts checkpoint restarts (device loss or a persistent
	// kernel/transfer fault).
	Replays int
	// ReplayedFloats is the H2D volume re-transferred restoring
	// checkpointed residency after device loss.
	ReplayedFloats int64
	// Replans counts degradation-ladder replans after persistent OOM.
	Replans int
	// ReplanBudgets lists the capacity (floats) of each replan attempt.
	ReplanBudgets []int64
	// CPUFallback is set when the final rung — the pure-CPU reference
	// executor — produced the outputs.
	CPUFallback bool
	// Events is a human-readable audit log of every recovery action.
	Events []string
}

// Clean reports whether the execution needed no recovery at all.
func (r *Recovery) Clean() bool {
	return r.Retries == 0 && r.Replays == 0 && r.Replans == 0 && !r.CPUFallback
}

func (r *Recovery) String() string {
	if r.Clean() {
		return "recovery: clean (no faults)"
	}
	s := fmt.Sprintf("recovery: %d retries (%.3fs backoff), %d replays (%d floats re-transferred), %d replans",
		r.Retries, r.BackoffSeconds, r.Replays, r.ReplayedFloats, r.Replans)
	if r.CPUFallback {
		s += ", CPU fallback"
	}
	return s
}

func (r *Recovery) logf(format string, args ...interface{}) {
	r.Events = append(r.Events, fmt.Sprintf(format, args...))
}

// checkpoint is a restart point taken at a StepSync offload-unit
// boundary: the executor state needed to resume from the following step.
// Snapshots are host-side bookkeeping and charge no simulated time; the
// recovery path pays the full H2D replay cost when a checkpoint is
// restored (see DESIGN.md, "Failure model & recovery").
type checkpoint struct {
	next      int   // index of the first step after the sync
	resident  []int // buffer IDs resident at the boundary, ascending
	data      map[int]*tensor.Tensor
	hostValid map[int]bool
	clk       sched.Clock // engine free times and ready times at the boundary
}

// snapshot overwrites cp with the restart point before step next. A run
// keeps one checkpoint and overwrites it at every sync.
func (e *executor) snapshot(cp *checkpoint, next int) {
	*cp = checkpoint{
		next:      next,
		resident:  cp.resident[:0],
		data:      make(map[int]*tensor.Tensor, len(e.resident)),
		hostValid: make(map[int]bool, len(e.hs.valid)),
	}
	cp.clk.Rewind(e.clk)
	for id, db := range e.resident {
		cp.resident = append(cp.resident, id)
		if db.data != nil {
			cp.data[id] = db.data.Clone()
		}
	}
	sort.Ints(cp.resident)
	for id, v := range e.hs.valid {
		cp.hostValid[id] = v
	}
}

// restore recovers the device and rebuilds the checkpointed residency,
// charging a full H2D replay for every restored buffer. It returns the
// floats re-transferred (even on error, for accounting) and is idempotent:
// a failed restore can simply be run again.
func (e *executor) restore(cp *checkpoint) (int64, error) {
	e.obs.R().CloseAll(e.clk.Now()) // device reset drops all allocations
	e.dev.Recover()
	for _, db := range e.resident {
		e.recycle(db.data)
	}
	e.resident = make(map[int]*devBuf)
	// Rewind host validity in place (the resilient driver always owns a
	// private host state, but the map identity is kept regardless).
	for id := range e.hs.valid {
		delete(e.hs.valid, id)
	}
	for id, v := range cp.hostValid {
		e.hs.valid[id] = v
	}
	e.clk.Rewind(&cp.clk)
	e.accLive = make(map[int]bool, len(cp.resident))
	e.accResident = 0
	// Resident IDs always name buffers the plan touches, so the plan's
	// canonical buffer walk is the right resolution set.
	bufs := e.plan.Buffers()
	byID := make(map[int]*graph.Buffer, len(bufs))
	for _, b := range bufs {
		byID[b.ID] = b
	}
	var floats int64
	for _, id := range cp.resident {
		b, ok := byID[id]
		if !ok {
			return floats, fmt.Errorf("exec: restore: unknown buffer %d", id)
		}
		t0 := e.clk.Now()
		off, err := e.dev.Malloc(b.Bytes())
		if err != nil {
			return floats, fmt.Errorf("exec: restore %s: %w", b, err)
		}
		if err := e.dev.Gate(gpu.FaultH2D); err != nil {
			_ = e.dev.FreeMem(off)
			return floats, fmt.Errorf("exec: restore %s: %w", b, err)
		}
		e.clk.Step(sched.Step{Kind: sched.StepH2D, Buf: b})
		floats += b.Size()
		e.obs.M().Counter("exec.h2d.bytes", "cause", "checkpoint_replay").Add(b.Bytes())
		e.obs.R().Alloc(b.ID, b.Name, b.Bytes(), t0)
		if e.loaded != nil {
			e.loaded[b.ID] = true
		}
		db := &devBuf{off: off}
		if t, ok := cp.data[id]; ok {
			db.data = e.newTensor(t.Rows(), t.Cols())
			db.data.CopyFrom(t)
		}
		e.resident[id] = db
		e.accLive[id] = true
		e.accResident += b.Bytes()
	}
	if e.accResident > e.rep.PeakResidentBytes {
		e.rep.PeakResidentBytes = e.accResident
	}
	return floats, nil
}

// runResilient executes the plan like plain sequential Run but survives
// injected and real runtime faults (Run with Options.Resilient):
//
//   - transient transfer/kernel/malloc faults are retried with capped
//     exponential backoff, charged to the simulated clock;
//   - on device loss (and on persistent non-OOM faults, which are handled
//     as a device-level reset) the device is recovered and execution
//     restarts from the last StepSync checkpoint, replaying the H2D of
//     the buffers live at that boundary;
//   - on persistent out-of-memory the degradation ladder replans the
//     graph via split+sched against a shrinking memory budget, and as a
//     last resort falls back to the pure-CPU reference executor.
//
// With no faults the result is bit- and stat-identical to a
// non-resilient run. The returned Report always carries a non-nil
// Recovery section.
//
// Cancellation is checked between steps and before each ladder rung:
// when ctx expires, the attempt releases every device allocation (the
// device stays pristine), no further rung — including the CPU fallback —
// runs, and the error wraps ctx.Err().
func runResilient(ctx context.Context, g *graph.Graph, plan *sched.Plan, in Inputs, opt Options) (*Report, error) {
	dev := opt.Device
	if dev == nil {
		return nil, fmt.Errorf("exec: no device")
	}
	capacity := opt.Resilient.Capacity
	if capacity == 0 {
		capacity = dev.Spec.PlannerCapacity()
	}
	// Attempts drive the plain sequential step machine: clear the driver
	// selection on the executor-facing options so checkpoints land at
	// deterministic step boundaries.
	opt.Resilient = nil
	opt.Pipeline = false

	rec := &Recovery{}
	// One clock runs across every attempt, so the failed attempts' time
	// stays charged.
	clk := &sched.Clock{Spec: dev.Spec, Overlap: opt.Overlap}
	rep, err := runAttempt(ctx, g, plan, in, opt, rec, clk)
	if err == nil {
		rep.Recovery = rec
		return rep, nil
	}

	// Degradation ladder: persistent OOM means the plan's residency does
	// not fit the device as-is — replan with a shrinking budget.
	for _, frac := range ladderBudgets {
		if !errors.Is(err, ErrOOM) || ctx.Err() != nil {
			break
		}
		target := int64(float64(capacity) * frac)
		if target <= 0 {
			break
		}
		rec.logf("persistent OOM (%v): replanning with budget %d floats (%.0f%% of capacity)",
			err, target, frac*100)
		opt.Obs.M().Counter("exec.replans").Inc()
		opt.Obs.T().MarkSim(obs.RecoveryTrack, "replan", "recovery", clk.Now(), map[string]string{
			"budget_floats": fmt.Sprint(target),
			"fraction":      fmt.Sprintf("%.0f%%", frac*100),
		})
		g2, plan2, perr := replan(ctx, g, target)
		if perr != nil {
			rec.logf("replan at %d floats failed: %v", target, perr)
			err = fmt.Errorf("%w (replan at %d floats: %v)", err, target, perr)
			continue
		}
		rec.Replans++
		rec.ReplanBudgets = append(rec.ReplanBudgets, target)
		dev.Recover()              // fresh allocator, lost flag cleared
		clk.Rewind(&sched.Clock{}) // the new plan starts with idle engines
		rep, err = runAttempt(ctx, g2, plan2, in, opt, rec, clk)
		if err == nil {
			rep.Recovery = rec
			return rep, nil
		}
	}

	// Final rung: pure-CPU reference execution. Only meaningful when data
	// is materialized; accounting mode has nothing to compute. A cancelled
	// caller gets the cancellation error, not a CPU-computed result.
	if opt.Mode == Materialized && ctx.Err() == nil {
		rec.logf("degradation ladder exhausted (%v): falling back to CPU reference", err)
		opt.Obs.M().Counter("exec.cpu_fallback").Inc()
		opt.Obs.T().MarkSim(obs.RecoveryTrack, "cpu_fallback", "recovery", clk.Now(), nil)
		outs, rerr := RunReference(g, in)
		if rerr != nil {
			return rep, fmt.Errorf("exec: CPU fallback failed: %v (after %w)", rerr, err)
		}
		rec.CPUFallback = true
		if rep == nil {
			rep = &Report{}
		}
		rep.Stats = clk.Stats()
		rep.Actual = rep.Stats // CPU fallback elides nothing further
		rep.Outputs = outs
		rep.Recovery = rec
		return rep, nil
	}
	if rep != nil {
		rep.Recovery = rec
	}
	return rep, err
}

// replan re-derives a feasible plan for the graph under the given memory
// budget (floats) through the compile pipeline's split, validate,
// heuristic and verify passes: the plan must pass the static verifier
// before it is allowed near the device. The split pass rewrites a clone,
// so buffer IDs (and therefore the caller's Inputs/Outputs keys) are
// preserved and g is never written.
func replan(ctx context.Context, g *graph.Graph, budget int64) (*graph.Graph, *sched.Plan, error) {
	c := &compiler.Compilation{Graph: g, Capacity: budget, SplitTarget: budget}
	p := compiler.NewPipeline(compiler.SplitPass{}, compiler.ValidatePass{},
		compiler.HeuristicPass{}, compiler.VerifyPass{})
	if err := p.Run(ctx, c); err != nil {
		return nil, nil, err
	}
	return c.Graph, c.Plan, nil
}

// runAttempt drives one plan to completion with step-level retry and
// checkpoint restart, charging clk. It returns the partial report
// alongside any error it cannot absorb (persistent OOM for the ladder,
// plan bugs).
func runAttempt(ctx context.Context, g *graph.Graph, plan *sched.Plan, in Inputs, opt Options, rec *Recovery, clk *sched.Clock) (*Report, error) {
	e, err := newExecutor(g, plan, in, opt)
	if err != nil {
		return nil, err
	}
	e.clk = clk
	cp := &checkpoint{}
	e.snapshot(cp, 0) // restart point before the first step
	replays := 0
	si := 0
	for si < len(plan.Steps) {
		if ctx.Err() != nil {
			return e.cancelled(ctx, si)
		}
		step := plan.Steps[si]
		err := e.stepWithRetry(si, step, rec)
		if err == nil {
			if step.Kind == sched.StepSync {
				e.snapshot(cp, si+1)
			}
			si++
			continue
		}
		switch {
		case errors.Is(err, ErrOOM):
			// Persistent allocation failure: the ladder replans.
			return e.abort(err)
		case gpu.IsDeviceLost(err) || isPersistentFault(err):
			// Device loss, or a persistent kernel/transfer fault treated
			// as a device-level reset: restore the last checkpoint and
			// replay from there.
			if replays >= maxReplays {
				rec.logf("step %d: %v: replay budget (%d) exhausted", si, err, maxReplays)
				return e.abort(err)
			}
			replays++
			rec.Replays++
			rec.logf("step %d: %v: restoring checkpoint at step %d (replay %d/%d)",
				si, err, cp.next, replays, maxReplays)
			e.observeFault("checkpoint_restore", si, step, err, map[string]string{
				"resume_step": fmt.Sprint(cp.next),
				"replay":      fmt.Sprintf("%d/%d", replays, maxReplays),
			})
			if rerr := e.restoreWithRetry(cp, rec); rerr != nil {
				return e.abort(rerr)
			}
			si = cp.next
		default:
			// Plan bug or operator error: not recoverable by rerunning.
			return e.abort(err)
		}
	}
	return e.finish()
}

// stepWithRetry executes one step, retrying transient faults with capped
// exponential backoff charged to the simulated clock.
func (e *executor) stepWithRetry(si int, step sched.Step, rec *Recovery) error {
	err := e.step(si, step)
	for attempt := 0; err != nil && gpu.IsTransient(err) && attempt < maxRetries; attempt++ {
		b := backoff(attempt)
		e.clk.Stall(b)
		rec.Retries++
		rec.BackoffSeconds += b
		rec.logf("step %d (%s): transient fault (%v): retry %d after %.1fms",
			si, step.Kind, err, attempt+1, b*1e3)
		e.observeFault("retry", si, step, err, map[string]string{
			"attempt": fmt.Sprint(attempt + 1),
			"backoff": fmt.Sprintf("%.3fms", b*1e3),
		})
		err = e.step(si, step)
	}
	return err
}

// observeFault records one recovery action: a counter labelled by fault
// kind and an instant event on the recovery track at the current
// simulated time. No-op without an observer.
func (e *executor) observeFault(action string, si int, step sched.Step, err error, args map[string]string) {
	if e.obs == nil {
		return
	}
	kind := "unknown"
	var fe *gpu.FaultError
	if errors.As(err, &fe) {
		kind = fe.Kind.String()
	}
	e.obs.M().Counter("exec."+action, "fault", kind).Inc()
	if args == nil {
		args = map[string]string{}
	}
	args["step"] = fmt.Sprintf("%d (%s)", si, step.Kind)
	args["fault"] = kind
	e.obs.T().MarkSim(obs.RecoveryTrack, action, "recovery", e.clk.Now(), args)
}

// restoreWithRetry restores a checkpoint, absorbing transient faults and
// repeated device losses during the replay itself (restore is idempotent).
func (e *executor) restoreWithRetry(cp *checkpoint, rec *Recovery) error {
	floats, err := e.restore(cp)
	rec.ReplayedFloats += floats
	for attempt := 0; err != nil && attempt < maxRetries; attempt++ {
		if !(gpu.IsTransient(err) || gpu.IsDeviceLost(err)) {
			return err
		}
		b := backoff(attempt)
		e.clk.Stall(b)
		rec.Retries++
		rec.BackoffSeconds += b
		rec.logf("checkpoint restore failed (%v): retry %d after %.1fms", err, attempt+1, b*1e3)
		floats, err = e.restore(cp)
		rec.ReplayedFloats += floats
	}
	return err
}

// isPersistentFault reports an injected persistent fault that is not an
// OOM (those go to the degradation ladder instead).
func isPersistentFault(err error) bool {
	var fe *gpu.FaultError
	return errors.As(err, &fe) && fe.Class == gpu.Persistent && !errors.Is(err, ErrOOM)
}
