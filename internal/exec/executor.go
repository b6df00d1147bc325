package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Mode selects how a plan is executed on the simulated device.
type Mode int

// Execution modes.
const (
	// Materialized allocates real host and device buffers and runs every
	// operator kernel, so results can be verified bit-for-bit against the
	// reference executor. Use for small/medium problem sizes.
	Materialized Mode = iota
	// Accounting performs the identical sequence of allocations,
	// transfers, and (modeled) kernel launches without materializing any
	// data: byte-exact memory/transfer/timing simulation for paper-scale
	// footprints (up to the 17 GB configurations of Table 1).
	Accounting
)

// Options configures plan execution.
type Options struct {
	Mode   Mode
	Device *gpu.Device
	// Overlap steps the run's sched.Clock with two engines when the
	// device supports asynchronous transfer (the extension the paper
	// describes in §3.3.2 but could not evaluate on its hardware): a
	// finished run's WallTime is the two-engine makespan, and its Stats
	// equal sched.Fold(plan, spec, true, nil) when no fault or compaction
	// was charged. Transfer volumes and results are unchanged.
	Overlap bool
	// Pipeline executes the plan concurrently — a DMA goroutine and a
	// compute-worker pool synchronized by the step-dependency DAG
	// (sched.StepDeps) — so materialized runs overlap real transfer work
	// with real kernel work on the host. Results and statistics are
	// bit-identical to sequential execution. Run dispatches on it;
	// ignored when Resilient is set (the resilient driver is sequential).
	Pipeline bool
	// PipelineWorkers bounds the compute-worker pool of a pipelined
	// execution (0 → GOMAXPROCS).
	PipelineWorkers int
	// WallTrace, when non-nil, receives host wall-clock events (seconds
	// since the run started) from a pipelined execution: one event per
	// transfer performed by the DMA goroutine and per kernel run by the
	// compute pool. Its Gantt chart shows the *real* DMA/compute overlap,
	// complementing Trace's simulated timeline. Ignored by sequential
	// execution.
	WallTrace *gpu.Trace
	// Obs, when non-nil, receives execution spans (engine tracks on the
	// simulated clock), metrics (transfer bytes by cause, kernel time by
	// operator type, allocator fragmentation), and per-buffer residency
	// intervals. Nil keeps the zero-overhead fast path: results and
	// statistics are bit-identical with and without an observer.
	Obs *obs.Observer
	// Resident marks buffer IDs modeled as already device-resident
	// across jobs (a serving layer's pinned set, sched.Residency's
	// shareable classification). Their H2D steps skip the transfer fault
	// gate in perform and are excluded from the report's Actual clock
	// domain; the charged Stats, the outputs, and the peak-residency
	// accounting remain bit-identical to a run without Resident — the
	// executor still allocates the buffer and materializes it from the
	// job's own host copy, so elision never changes data. Only sound for
	// buffers the residency analysis proved read-only.
	Resident map[int]bool
	// Resilient, when non-nil, runs the plan under the resilient driver:
	// transient faults retry with backoff, device loss restarts from the
	// last offload-unit checkpoint, and persistent OOM walks the
	// degradation ladder (see Resilience). Takes precedence over Pipeline
	// — the resilient driver executes sequentially so checkpoints land at
	// deterministic step boundaries. With no faults injected the result
	// is bit- and stat-identical to a non-resilient run.
	Resilient *Resilience

	// shared, when non-nil, makes this execution one part of a
	// cross-device partitioned run: host arrays and host-validity are
	// shared with the sibling parts (set only by RunPartitioned).
	shared *hostState
}

// hostState is the host side of an execution: the root arrays
// (materialized mode) and the per-buffer host-validity map, guarded by
// one mutex. A single-device run owns one privately; the parts of a
// partitioned run share one, which is how a cut buffer D2H'd by its
// producing device becomes loadable on the consuming device.
type hostState struct {
	mu sync.Mutex
	// arr holds the root arrays (materialized mode): template inputs from
	// the start, every other root from the first D2H into it (see copy).
	arr   map[int]*tensor.Tensor
	valid map[int]bool
	// serialize makes perform hold mu across real host-array copies.
	// Single-device pipelined runs keep copies outside the lock (steps
	// touching the same bytes are DAG-ordered); partitioned runs must
	// serialize, because halo duplication means two devices can copy
	// byte-identical but overlapping host regions with no cross-part
	// ordering edge between them.
	serialize bool
}

func newHostState() *hostState {
	return &hostState{arr: make(map[int]*tensor.Tensor), valid: make(map[int]bool)}
}

// copy moves b's region between its host root array and the device tensor
// dev, in the direction toHost selects. A root that is not a template
// input is created, zeroed, by the first copy that touches it — in a plan
// that is a D2H, since H2D only reads host-valid regions — so a run pays
// for the roots it brings back, not for every intermediate of the graph.
// mu covers the lookup always and the copy itself when serialize is set.
func (hs *hostState) copy(b *graph.Buffer, dev *tensor.Tensor, toHost bool) {
	hs.mu.Lock()
	root := hs.arr[b.Root.ID]
	if root == nil {
		root = tensor.New(b.Root.Region.Rows, b.Root.Region.Cols)
		hs.arr[b.Root.ID] = root
	}
	if hs.serialize {
		defer hs.mu.Unlock()
	} else {
		hs.mu.Unlock()
	}
	host := regionView(root, b.Root.Region, b.Region)
	if toHost {
		host.CopyFrom(dev)
	} else {
		dev.CopyFrom(host)
	}
}

// Report is the result of executing a plan.
type Report struct {
	Stats   gpu.Stats
	Outputs Outputs // nil in Accounting mode
	// Actual is the elided-clock view of Stats: identical except that
	// the H2D transfers of Options.Resident buffers are removed from
	// TransferTime, H2DFloats, and H2DCalls — the cost the device would
	// actually pay with the pinned set already resident. Equal to Stats
	// when nothing was elided. The overlapped (WallTime) makespan is not
	// re-derived: an overlap run's Actual.TotalTime conservatively
	// equals Stats.TotalTime.
	Actual gpu.Stats
	// ElidedH2DFloats and ElidedH2DCalls count the transfers elided into
	// the Actual domain (zero without Options.Resident).
	ElidedH2DFloats int64
	ElidedH2DCalls  int
	// PeakResidentBytes is the maximum simultaneous device allocation.
	PeakResidentBytes int64
	// Thrashing is set when the volume moved across the bus exceeds the
	// host's main memory — the condition under which the paper reports
	// "inconsistent results (due to thrashing)" in Table 2.
	Thrashing bool
	// Recovery documents the failure-recovery actions a resilient
	// execution took (nil for plain Run; non-nil and Clean() for a
	// resilient run that saw no faults).
	Recovery *Recovery
}

type devBuf struct {
	off  int64
	data *tensor.Tensor // nil in accounting mode
}

// executor is the plan step machine: all state needed to execute one step
// at a time, so that a resilient driver can retry individual steps,
// snapshot the state at offload-unit boundaries, and restore it after a
// device loss. drive runs it straight through; the pipelined driver splits
// each step into its perform half (run concurrently, DAG-ordered) and its
// account half (replayed in plan order).
type executor struct {
	g    *graph.Graph
	plan *sched.Plan
	opt  Options
	dev  *gpu.Device
	rep  *Report

	// hs carries the host arrays and host-validity map; its mutex also
	// guards the resident map during a pipelined run, where perform
	// halves of independent steps execute from multiple goroutines.
	// Sequential execution takes it uncontended. Partitioned runs share
	// one hs across all parts.
	hs       *hostState
	resident map[int]*devBuf

	// free is the run's free list of device-tensor storage, keyed by float
	// count and guarded by hs.mu: every tensor a step drops (StepFree, a
	// launch's gather/scatter scratch, a rolled-back output) goes in, every
	// tensor a step needs (newTensor) comes out when its size is there.
	// It lives and dies with the run and never holds more than the arena
	// does (freeFloats), so the host mirror of a device stays within twice
	// its memory. Host root arrays — what Report.Outputs hands the caller
	// — never enter it.
	free       map[int][][]float32
	freeFloats int64

	// obs is opt.Obs; loaded marks buffers that have been device-resident
	// once (transferred up or produced by a launch), distinguishing
	// eviction-refetch from initial-load transfer volume in the metrics.
	// Nil when no observer is attached.
	obs    *obs.Observer
	loaded map[int]bool

	// Accounting-side residency replay: accLive/accResident mirror the
	// allocator's live set step by step in plan order, so peak residency
	// is computed identically whether the perform halves ran sequentially
	// or concurrently.
	accLive     map[int]bool
	accResident int64

	// clk is the run's modeled clock: account steps it in plan order, and
	// Report.Stats is what it charged. The resilient driver shares one
	// clock across the attempts of a run.
	clk *sched.Clock

	// Residency-elision accumulators (Options.Resident): the charged H2D
	// volume/time that capture subtracts to form Report.Actual. Written
	// only by account, which always runs in plan order on one goroutine.
	elidedFloats int64
	elidedCalls  int
	elidedTime   float64
}

// newExecutor validates the options and prepares host state. The device
// must be pristine: stale allocations from a prior failed run would
// silently corrupt the feasibility accounting.
func newExecutor(g *graph.Graph, plan *sched.Plan, in Inputs, opt Options) (*executor, error) {
	dev := opt.Device
	if dev == nil {
		return nil, fmt.Errorf("exec: no device")
	}
	if used := dev.Allocator().UsedBytes(); used != 0 {
		return nil, fmt.Errorf(
			"exec: device %s not pristine: %d bytes still allocated (Reset or Recover it first)",
			dev.Spec.Name, used)
	}
	e := &executor{
		g: g, plan: plan, opt: opt, dev: dev,
		rep:      &Report{},
		hs:       opt.shared,
		resident: make(map[int]*devBuf),
		free:     make(map[int][][]float32),
		accLive:  make(map[int]bool),
		clk:      &sched.Clock{Spec: dev.Spec, Overlap: opt.Overlap},
		obs:      opt.Obs,
	}
	if e.obs != nil {
		e.loaded = make(map[int]bool)
	}
	shared := e.hs != nil
	if !shared {
		e.hs = newHostState()
	}
	// Host validity is only ever consulted for buffers the plan touches,
	// so seed it from the plan's canonical buffer walk. (Idempotent when
	// the host state is shared across partition parts, but the lock is
	// still required: sibling parts seed concurrently.)
	e.hs.mu.Lock()
	for _, b := range plan.Buffers() {
		if b.Root.IsInput || b.IsInput {
			e.hs.valid[b.ID] = true
		}
	}
	e.hs.mu.Unlock()
	// A shared host state was materialized by the partition driver; a
	// private one is materialized here.
	if opt.Mode == Materialized && !shared {
		if err := materializeHost(e.hs, g, in); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// materializeHost clones the template inputs from the caller's tensors
// into host root arrays; every other root is created by the first copy
// into it (hostState.copy).
func materializeHost(hs *hostState, g *graph.Graph, in Inputs) error {
	for _, b := range g.Buffers() {
		if !b.IsRoot() || !b.IsInput {
			continue
		}
		t, ok := in[b.ID]
		if !ok {
			return fmt.Errorf("exec: missing input tensor for %s", b)
		}
		if t.Rows() != b.Region.Rows || t.Cols() != b.Region.Cols {
			return fmt.Errorf("exec: input %s shape %v, want %v", b, t, b.Shape())
		}
		hs.arr[b.ID] = t.Clone()
	}
	return nil
}

// poisonRecycled makes recycle fill every tensor entering a free list with
// NaN, so a step that read recycled storage before writing it could not
// produce the reference outputs. Set by this package's TestMain only.
var poisonRecycled bool

// newTensor returns a rows×cols device tensor with unspecified contents,
// recycled when the free list holds its size. Every caller either
// overwrites all of it (an H2D copy, a gather — Arg.Covered guarantees
// that) or hands it to a kernel as out, which every kernel in ops writes
// in full.
func (e *executor) newTensor(rows, cols int) *tensor.Tensor {
	n := rows * cols
	e.hs.mu.Lock()
	l := e.free[n]
	if len(l) == 0 {
		e.hs.mu.Unlock()
		return tensor.New(rows, cols)
	}
	// Take the storage under the lock: once free[n] is shortened, the
	// next recycle appends into the slot this read would see.
	d := l[len(l)-1]
	e.free[n] = l[:len(l)-1]
	e.freeFloats -= int64(n)
	e.hs.mu.Unlock()
	return tensor.FromSlice(rows, cols, d)
}

// recycle puts the storage of a device tensor no step can reach any more
// on the free list (a nil tensor, accounting mode's, is ignored).
func (e *executor) recycle(t *tensor.Tensor) {
	if t == nil {
		return
	}
	if poisonRecycled {
		t.Fill(float32(math.NaN()))
	}
	d := t.Data()
	e.hs.mu.Lock()
	if (e.freeFloats+int64(len(d)))*4 <= e.dev.Spec.MemoryBytes {
		e.free[len(d)] = append(e.free[len(d)], d)
		e.freeFloats += int64(len(d))
	}
	e.hs.mu.Unlock()
}

// regionView returns the part of t, a tensor holding region held of some
// root, that is region want of the same root (want must lie inside held).
func regionView(t *tensor.Tensor, held, want graph.Region) *tensor.Tensor {
	return t.View(want.Row-held.Row, want.Col-held.Col, want.Rows, want.Cols)
}

// arg returns the i-th argument of n: its inputs, then its output. The
// step loop walks arguments' Bufs through it instead of the allocating,
// de-duplicating Node.Buffers accessors.
func arg(n *graph.Node, i int) graph.Arg {
	if i < len(n.In) {
		return n.In[i]
	}
	return n.Out
}

// observe feeds the metrics registry and residency profiler after a step
// was accounted. Residency timestamps use the serialized clock even in
// overlapped mode, so the profile lines up with Stats' time buckets.
func (e *executor) observe(si int, step sched.Step, t0 float64) {
	m := e.obs.M()
	switch step.Kind {
	case sched.StepH2D:
		b := step.Buf
		cause := "initial_load"
		switch {
		case e.opt.Resident[b.ID]:
			cause = "resident_elided"
		case e.loaded[b.ID]:
			cause = "eviction_refetch"
		}
		e.loaded[b.ID] = true
		m.Counter("exec.h2d.bytes", "cause", cause).Add(b.Bytes())
		m.Counter("exec.h2d.calls").Inc()
		e.obs.R().Alloc(b.ID, b.Name, b.Bytes(), t0)
	case sched.StepD2H:
		m.Counter("exec.d2h.bytes").Add(step.Buf.Bytes())
		m.Counter("exec.d2h.calls").Inc()
	case sched.StepFree:
		e.obs.R().Free(step.Buf.ID, e.clk.Now())
	case sched.StepLaunch:
		n := step.Node
		kind := n.Op.Kind()
		m.Counter("exec.launches", "op", kind).Inc()
		m.Histogram("exec.kernel.seconds", "op", kind).Observe(e.clk.Now() - t0)
		for _, b := range n.Out.Bufs {
			// Outputs the launch allocated open residency intervals here;
			// already-resident operands are a no-op. Device-produced buffers
			// count as loaded: transferring one up again is a refetch.
			e.obs.R().Alloc(b.ID, b.Name, b.Bytes(), t0)
			e.loaded[b.ID] = true
		}
	case sched.StepSync:
		m.Counter("exec.syncs").Inc()
	}
	m.Gauge("exec.peak_resident_bytes").SetMax(float64(e.accResident))
}

// malloc allocates device memory, defragmenting the arena and retrying
// once when the failure is pure external fragmentation: enough free
// bytes, no contiguous span. The framework placed every live allocation
// on the device, so it can slide them down (the clock charges the
// modeled D2D copy time) and fix up its own offsets — which is what
// makes a plan the scheduler verified against the planner's byte budget
// run without OOM even when first-fit layout fragments. Disabled under
// Pipeline: concurrent perform halves hold offsets outside the lock,
// which a compaction would invalidate; pipelined plans keep the
// planner's contiguity slack instead.
func (e *executor) malloc(n int64) (int64, error) {
	off, err := e.dev.Malloc(n)
	if err == nil || e.opt.Pipeline || !errors.Is(err, gpu.ErrOOM) {
		return off, err
	}
	if e.dev.Allocator().FreeBytes() < n {
		return off, err // genuine capacity overrun, not fragmentation
	}
	moves := e.dev.Allocator().Compact()
	e.clk.Compact(moves)
	e.hs.mu.Lock()
	remap := make(map[int64]int64, len(moves))
	for _, m := range moves {
		remap[m.Old] = m.New
	}
	for _, db := range e.resident {
		if to, ok := remap[db.off]; ok {
			db.off = to
		}
	}
	e.hs.mu.Unlock()
	return e.dev.Malloc(n)
}

// perform executes the state-changing half of step si: fault gates,
// allocator traffic, and real data movement — everything whose order the
// hardware constrains. It charges no simulated time (see account). Steps
// are atomic with respect to device faults: when perform returns an
// injected-fault error, no device time has been charged and any partial
// allocations have been rolled back, so the same step can simply be
// executed again.
//
// perform is safe to call concurrently for steps that sched.StepDeps
// proves independent; the executor's maps are mutex-guarded, and heavy
// tensor copies run outside the lock.
func (e *executor) perform(si int, step sched.Step) error {
	dev := e.dev
	switch step.Kind {
	case sched.StepH2D:
		b := step.Buf
		e.hs.mu.Lock()
		_, already := e.resident[b.ID]
		valid := e.hs.valid[b.ID]
		e.hs.mu.Unlock()
		if already {
			return fmt.Errorf("exec: step %d: H2D of already-resident %s", si, b)
		}
		if !valid {
			return fmt.Errorf("exec: step %d: H2D of %s but host copy is invalid", si, b)
		}
		off, err := e.malloc(b.Bytes())
		if err != nil {
			return fmt.Errorf("exec: step %d: %w", si, err)
		}
		// An elided (resident) buffer performs no bus transfer, so the
		// transfer fault gate does not apply; the allocation above still
		// gated on malloc faults and the data below still materializes
		// from this job's own host copy, keeping outputs bit-identical.
		if !e.opt.Resident[b.ID] {
			if err := dev.Gate(gpu.FaultH2D); err != nil {
				_ = dev.FreeMem(off) // roll back so a retry re-executes cleanly
				return fmt.Errorf("exec: step %d: %w", si, err)
			}
		}
		db := &devBuf{off: off}
		if e.opt.Mode == Materialized {
			db.data = e.newTensor(b.Region.Rows, b.Region.Cols)
			e.hs.copy(b, db.data, false)
		}
		e.hs.mu.Lock()
		e.resident[b.ID] = db
		e.hs.mu.Unlock()

	case sched.StepD2H:
		b := step.Buf
		e.hs.mu.Lock()
		db, ok := e.resident[b.ID]
		e.hs.mu.Unlock()
		if !ok {
			return fmt.Errorf("exec: step %d: D2H of non-resident %s", si, b)
		}
		if err := dev.Gate(gpu.FaultD2H); err != nil {
			return fmt.Errorf("exec: step %d: %w", si, err)
		}
		if e.opt.Mode == Materialized {
			e.hs.copy(b, db.data, true)
		}
		e.hs.mu.Lock()
		e.hs.valid[b.ID] = true
		e.hs.mu.Unlock()

	case sched.StepFree:
		b := step.Buf
		e.hs.mu.Lock()
		db, ok := e.resident[b.ID]
		e.hs.mu.Unlock()
		if !ok {
			return fmt.Errorf("exec: step %d: free of non-resident %s", si, b)
		}
		if err := dev.FreeMem(db.off); err != nil {
			return fmt.Errorf("exec: step %d: %w", si, err)
		}
		e.hs.mu.Lock()
		delete(e.resident, b.ID)
		e.hs.mu.Unlock()
		e.recycle(db.data)

	case sched.StepLaunch:
		n := step.Node
		// Outputs may need fresh allocations (plans allocate outputs
		// implicitly at launch). Track them so a faulted launch can roll
		// back to a retryable state.
		var fresh []int
		rollback := func() {
			for _, id := range fresh {
				e.hs.mu.Lock()
				db := e.resident[id]
				_ = dev.FreeMem(db.off)
				delete(e.resident, id)
				e.hs.mu.Unlock()
				e.recycle(db.data)
			}
		}
		for _, b := range n.Out.Bufs {
			e.hs.mu.Lock()
			_, ok := e.resident[b.ID]
			e.hs.mu.Unlock()
			if ok {
				continue
			}
			off, err := e.malloc(b.Bytes())
			if err != nil {
				rollback()
				return fmt.Errorf("exec: step %d (%s): output %s: %w", si, n, b, err)
			}
			db := &devBuf{off: off}
			if e.opt.Mode == Materialized {
				db.data = e.newTensor(b.Region.Rows, b.Region.Cols)
				if !n.Out.Region.Contains(b.Region) {
					// Only part of b is this launch's to write; the rest
					// reads as zero, as on a fresh allocation.
					db.data.Fill(0)
				}
			}
			e.hs.mu.Lock()
			e.resident[b.ID] = db
			e.hs.mu.Unlock()
			fresh = append(fresh, b.ID)
		}
		// Resolve the operand tensors under the lock, in argument order:
		// the kernel runs outside it, and unrelated steps may mutate the
		// resident map meanwhile. Dependencies guarantee the resolved
		// entries themselves are stable until this step completes.
		var data []*tensor.Tensor
		var missing *graph.Buffer
		e.hs.mu.Lock()
		for i := 0; i <= len(n.In) && missing == nil; i++ {
			for _, b := range arg(n, i).Bufs {
				db, ok := e.resident[b.ID]
				if !ok {
					missing = b
					break
				}
				if db.data != nil {
					data = append(data, db.data)
				}
			}
		}
		e.hs.mu.Unlock()
		if missing != nil {
			rollback()
			return fmt.Errorf("exec: step %d: launch %s with non-resident %s", si, n, missing)
		}
		if err := dev.Gate(gpu.FaultLaunch); err != nil {
			rollback()
			return fmt.Errorf("exec: step %d: %w", si, err)
		}
		if e.opt.Mode == Materialized {
			if err := e.launchMaterialized(n, data); err != nil {
				rollback()
				return fmt.Errorf("exec: step %d: %w", si, err)
			}
		}
		e.hs.mu.Lock()
		for _, b := range n.Out.Bufs {
			e.hs.valid[b.ID] = false // GPU now holds the only valid copy
		}
		e.hs.mu.Unlock()

	case sched.StepSync:
		// Synchronization has no state-changing half; its cost is charged
		// by account.

	default:
		return fmt.Errorf("exec: step %d: unknown kind %v", si, step.Kind)
	}
	if e.obs != nil {
		// Fragmentation gauges sample the live allocator, so they belong
		// to the perform half (under pipelining they reflect the true
		// concurrent allocator state; counters stay deterministic).
		alloc := e.dev.Allocator()
		m := e.obs.M()
		m.Gauge("gpu.alloc.free_spans").Set(float64(alloc.FreeSpans()))
		m.Gauge("gpu.alloc.free_spans_peak").SetMax(float64(alloc.FreeSpans()))
	}
	return nil
}

// account charges step si to the modeled clock, records its trace event,
// replays the plan-order residency (peak bytes), and feeds the observer.
// It must be called exactly once per performed step, in plan order —
// which makes statistics bit-identical between sequential and pipelined
// execution, and equal to sched.Fold's, by construction.
func (e *executor) account(si int, step sched.Step) {
	t0 := e.clk.Now()
	if ev, ok := e.clk.Step(step); ok {
		e.obs.T().AddSim(ev.Engine, ev.Label, ev.Kind.String(), ev.Start, ev.End)
	}
	switch step.Kind {
	case sched.StepH2D:
		b := step.Buf
		if e.opt.Resident[b.ID] {
			// Charged stats stay bit-identical; the elision only moves
			// this transfer out of the Actual domain at capture.
			e.elidedFloats += b.Size()
			e.elidedCalls++
			e.elidedTime += e.clk.Spec.H2DDuration(b.Size())
		}
		e.accLive[b.ID] = true
		e.accResident += b.Bytes()

	case sched.StepFree:
		b := step.Buf
		if e.accLive[b.ID] {
			delete(e.accLive, b.ID)
			e.accResident -= b.Bytes()
		}

	case sched.StepLaunch:
		for _, b := range step.Node.Out.Bufs {
			if !e.accLive[b.ID] {
				e.accLive[b.ID] = true
				e.accResident += b.Bytes()
			}
		}
	}
	if e.accResident > e.rep.PeakResidentBytes {
		e.rep.PeakResidentBytes = e.accResident
	}
	if e.obs != nil {
		e.observe(si, step, t0)
	}
}

// step executes plan step si: its perform half followed immediately by
// its account half — the sequential composition Run and the resilient
// executor drive.
func (e *executor) step(si int, step sched.Step) error {
	if err := e.perform(si, step); err != nil {
		return err
	}
	e.account(si, step)
	return nil
}

// abort is the one error exit of every driver: it frees every device
// allocation the executor still holds, so a failed or cancelled execution
// leaves the device pristine for the next request, then seals the partial
// report. FreeMem errors are ignored: a lost device discards its
// allocations on Recover/Reset anyway. The residency profile closes at the
// current simulated clock, so the trace stays balanced.
func (e *executor) abort(err error) (*Report, error) {
	e.hs.mu.Lock()
	for id, db := range e.resident {
		_ = e.dev.FreeMem(db.off)
		delete(e.resident, id)
	}
	e.hs.mu.Unlock()
	return e.capture(), err
}

// cancelled aborts the execution when ctx was cancelled before step si.
func (e *executor) cancelled(ctx context.Context, si int) (*Report, error) {
	return e.abort(fmt.Errorf("exec: cancelled before step %d: %w", si, ctx.Err()))
}

// capture fills the report with the statistics accumulated so far; used
// both at successful completion and to produce the partial report
// returned alongside an execution error.
func (e *executor) capture() *Report {
	e.obs.R().CloseAll(e.clk.Now())
	e.rep.Stats = e.clk.Stats()
	if hm := e.dev.Spec.HostMemoryBytes; hm > 0 && e.rep.Stats.TotalFloats()*4 > hm {
		e.rep.Thrashing = true
	}
	// Actual = Stats minus the elided transfers. WallTime (the overlap
	// makespan) is left alone, so an overlapped run's Actual.TotalTime
	// conservatively equals the charged makespan.
	e.rep.Actual = e.rep.Stats
	e.rep.ElidedH2DFloats = e.elidedFloats
	e.rep.ElidedH2DCalls = e.elidedCalls
	e.rep.Actual.H2DFloats -= e.elidedFloats
	e.rep.Actual.H2DCalls -= e.elidedCalls
	e.rep.Actual.TransferTime -= e.elidedTime
	return e.rep
}

// finish runs the end-of-plan invariant checks and seals the report.
func (e *executor) finish() (*Report, error) {
	outs := e.g.OutputBuffers()
	for _, b := range outs {
		e.hs.mu.Lock()
		valid := e.hs.valid[b.ID]
		e.hs.mu.Unlock()
		if !valid {
			return e.abort(fmt.Errorf("exec: template output %s did not reach the host", b))
		}
	}
	if len(e.resident) != 0 {
		return e.abort(fmt.Errorf("exec: %d buffers leaked on the device", len(e.resident)))
	}
	e.clk.Finish()
	e.capture()
	if e.opt.Mode == Materialized {
		e.rep.Outputs = templateOutputs(outs, e.hs)
	}
	return e.rep, nil
}

// templateOutputs assembles the template's outputs (g.OutputBuffers) from
// the host root arrays, one entry per distinct root buffer.
func templateOutputs(bufs []*graph.Buffer, hs *hostState) Outputs {
	outs := make(Outputs)
	hs.mu.Lock() // a sibling part may still be creating roots
	for _, b := range bufs {
		outs[b.Root.ID] = hs.arr[b.Root.ID]
	}
	hs.mu.Unlock()
	return outs
}

// Run is the single entry point for plan execution: it executes the plan
// on the simulated GPU under the driver Options selects.
//
//   - Options.Resilient non-nil → the resilient driver: transient-fault
//     retry, checkpoint/restart on device loss, and the OOM degradation
//     ladder. Takes precedence over Pipeline (checkpoints need
//     deterministic sequential step boundaries).
//   - Options.Pipeline → the pipelined driver: perform halves run
//     concurrently under the step-dependency DAG, accounting replays in
//     plan order, so results and statistics stay bit-identical.
//   - otherwise → plain sequential execution.
//
// Mode selects materialized execution vs. accounting simulation, and
// Resident opts buffers into residency elision; every combination runs
// through this one function. All drivers enforce every memory and
// data-validity constraint: transfers of data that is not valid at the
// source, launches with missing operands, and device out-of-memory
// conditions are errors — so a plan that "passes" is proven feasible for
// the device. The device must be pristine (no live allocations).
//
// Every driver has one error exit (executor.abort): whether a step
// failed or ctx expired between steps, the run frees every device
// allocation it holds — the device stays pristine — and returns the
// partial report (statistics and peak residency accumulated up to the
// failure, for diagnosability) alongside the error, which wraps ctx.Err()
// on cancellation. Only a nil report means execution never started.
func Run(ctx context.Context, g *graph.Graph, plan *sched.Plan, in Inputs, opt Options) (*Report, error) {
	if opt.Resilient != nil {
		return runResilient(ctx, g, plan, in, opt)
	}
	if opt.Pipeline {
		return runPipelined(ctx, g, plan, in, opt)
	}
	e, err := newExecutor(g, plan, in, opt)
	if err != nil {
		return nil, err
	}
	return drive(ctx, e, nil, nil, nil)
}

// drive is the sequential step loop: every step of e's plan in plan
// order, one at a time. Plain Run calls it with no edges; RunPartitioned
// calls it once per part, where inEdge[si] names the cross-device edge
// that must be done before step si (a cut H2D waits for its producer's
// D2H) and outEdges[si] the edges step si satisfies, closed as soon as it
// has executed.
func drive(ctx context.Context, e *executor, inEdge map[int]int, outEdges map[int][]int, edgeDone []chan struct{}) (*Report, error) {
	for si, step := range e.plan.Steps {
		if ei, ok := inEdge[si]; ok {
			select {
			case <-edgeDone[ei]:
			case <-ctx.Done():
				return e.cancelled(ctx, si)
			}
		}
		if ctx.Err() != nil {
			return e.cancelled(ctx, si)
		}
		if err := e.step(si, step); err != nil {
			return e.abort(err)
		}
		for _, ei := range outEdges[si] {
			close(edgeDone[ei])
		}
	}
	return e.finish()
}

// launchMaterialized runs the node's kernel on the resident device
// tensors, data listing them in argument order (see perform). An argument
// one buffer covers is passed as a View of that buffer, and the kernel
// writes straight into the resident output when the output is one buffer
// of exactly its region: no copy either way. Only an argument assembled
// from several buffers (a halo spanning chunks, an output scattered over
// parts) goes through a scratch tensor, gathered before and scattered
// after the kernel, and the scratch returns to the free list.
func (e *executor) launchMaterialized(n *graph.Node, data []*tensor.Tensor) error {
	var scratch []*tensor.Tensor
	defer func() {
		for _, t := range scratch {
			e.recycle(t)
		}
	}()
	ins := make([]*tensor.Tensor, len(n.In))
	inRegs := make([]graph.Region, len(n.In))
	for i, a := range n.In {
		bufs := data[:len(a.Bufs)]
		data = data[len(a.Bufs):]
		inRegs[i] = a.Region
		// (A buffer the node also writes is still copied: the kernel must
		// not see its own output through an input.)
		if b := a.Bufs[0]; len(a.Bufs) == 1 && b.Region.Contains(a.Region) && !slices.Contains(n.Out.Bufs, b) {
			ins[i] = regionView(bufs[0], b.Region, a.Region)
			continue
		}
		ins[i] = e.newTensor(a.Region.Rows, a.Region.Cols)
		scratch = append(scratch, ins[i])
		for j, b := range a.Bufs {
			if iv, ok := a.Region.Intersect(b.Region); ok {
				regionView(ins[i], a.Region, iv).CopyFrom(regionView(bufs[j], b.Region, iv))
			}
		}
	}
	out := data[0]
	direct := len(n.Out.Bufs) == 1 && n.Out.Bufs[0].Region == n.Out.Region
	if !direct {
		out = e.newTensor(n.Out.Region.Rows, n.Out.Region.Cols)
		scratch = append(scratch, out)
	}
	if rr, ok := n.Op.(graph.RegionRunner); ok {
		if err := rr.RunRegion(ins, inRegs, out, n.Out.Region); err != nil {
			return fmt.Errorf("node %s: %w", n, err)
		}
	} else if err := n.Op.Run(ins, out); err != nil {
		return fmt.Errorf("node %s: %w", n, err)
	}
	if direct {
		return nil
	}
	for j, b := range n.Out.Bufs {
		if iv, ok := n.Out.Region.Intersect(b.Region); ok {
			regionView(data[j], b.Region, iv).CopyFrom(regionView(out, n.Out.Region, iv))
		}
	}
	return nil
}
