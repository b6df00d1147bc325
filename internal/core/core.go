// Package core is the framework's public entry point: it wires the paper's
// pipeline (Fig. 4) end to end. A template expressed as a parallel
// operator graph goes through operator splitting (to satisfy GPU memory
// constraints), offload-unit identification, operator and data-transfer
// scheduling, and finally code generation / execution — automatically
// retargeted to whichever GPU the engine is configured with, which is the
// paper's performance-portability story.
//
// The compile path itself lives in internal/compiler as a pass pipeline;
// Engine is the facade that assembles the pipeline from a Config and
// packages its result, and Service adds a concurrency-safe front door
// with a memoizing plan cache on top.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/sched"
	"repro/internal/split"
)

// ErrInfeasible marks compilations that cannot fit the target device: no
// split brings every operator under capacity, or no transfer schedule
// exists within the memory budget. Detect with errors.Is; a serving
// layer maps it to a permanent rejection (no device in the pool can ever
// run the request), distinct from transient queue pressure.
var ErrInfeasible = errors.New("core: template infeasible for device")

// Planner selects the scheduling strategy.
type Planner int

// Planners.
const (
	// HeuristicPlanner is the paper's scalable default: depth-first
	// operator schedule + latest-time-of-use transfer schedule (§3.3.1).
	HeuristicPlanner Planner = iota
	// PBOptimalPlanner solves the Fig. 5 pseudo-Boolean formulation
	// exactly; feasible only for small templates (tens of operators).
	PBOptimalPlanner
	// BaselinePlanner reproduces the paper's comparison baseline: per
	// operator, copy inputs in, execute, copy outputs back.
	BaselinePlanner
)

func (p Planner) String() string {
	switch p {
	case PBOptimalPlanner:
		return "pb-optimal"
	case BaselinePlanner:
		return "baseline"
	}
	return "heuristic"
}

// Config parametrizes an Engine.
type Config struct {
	Device gpu.Spec
	// Planner defaults to HeuristicPlanner.
	Planner Planner
	// Capacity overrides the planner memory budget in floats (0 = the
	// device's PlannerCapacity, i.e. physical memory minus fragmentation
	// headroom).
	Capacity int64
	// PBMaxConflicts bounds each PB solver call (0 = unlimited). If the
	// budget is exhausted, the best plan found so far is used.
	PBMaxConflicts int64
	// SplitMaxParts bounds a single operator's split factor (0 = none).
	SplitMaxParts int
	// Overlap enables the asynchronous transfer/compute extension
	// (§3.3.2) on devices that support it: H2D copies are prefetched as
	// early as memory allows and the executor runs the DMA and compute
	// engines concurrently. Ignored on devices without AsyncTransfer.
	Overlap bool
	// Pipeline executes materialized runs with the pipelined executor
	// (exec.Options.Pipeline): the plan's step-dependency DAG drives a DMA
	// goroutine and a compute-worker pool concurrently on the host, with
	// H2D prefetch reordering so double-buffering has room to work.
	// Results and simulated statistics are bit-identical to sequential
	// execution; only host wall-clock time changes.
	Pipeline bool
	// PipelineWorkers bounds the pipelined executor's compute pool
	// (0 = GOMAXPROCS).
	PipelineWorkers int
	// Obs, when non-nil, threads the observability layer through the
	// whole pipeline: compile phases become wall-clock spans, execution
	// becomes simulated-clock engine tracks, and metrics/residency
	// profiles accumulate across compile and execute. Nil is free.
	Obs *obs.Observer
	// CacheSize bounds the Service plan cache (entries; 0 →
	// compiler.DefaultCacheSize). Engines ignore it.
	CacheSize int
	// Faults, when non-nil, installs this fault injector on every device
	// Execute/Simulate creates, so injected failures exercise the
	// resilient paths (and a serving layer's error handling) end to end.
	Faults *gpu.Injector
	// Schedule selects the load-balancing schedule operator kernels shard
	// their row loops with ("static", "mergepath", "worksteal"; "" =
	// static). Schedules change host wall time only — outputs and modeled
	// stats are bit-identical across all of them — so this is the knob
	// irregular (sparse) workloads tune, per compilation, the way
	// AutoTuneSplit tunes split depth.
	Schedule string
	// AutoTuneSplit is an extension beyond the paper's §3.3.1 heuristic
	// (which the paper itself notes "does not take into account the GPU
	// memory limitations" and has "scope for improvement"): the engine
	// additionally tries splitting against reduced capacity targets
	// (1/2, 1/4) and keeps whichever plan transfers the least. Splitting
	// deeper than strictly necessary often converts large intermediate
	// spills into chunk-wise pipelines. Candidates compile concurrently
	// on cloned graphs; the selection is deterministic regardless.
	AutoTuneSplit bool
}

// Engine compiles templates for one GPU configuration. It is a thin
// facade over the internal/compiler pass pipeline: NewEngine captures the
// configuration, Pipeline assembles the pass sequence it implies, and
// Compile runs it.
type Engine struct {
	cfg Config
}

// NewEngine returns an engine for the given configuration.
func NewEngine(cfg Config) *Engine { return &Engine{cfg: cfg} }

// Capacity returns the planner memory budget in floats.
func (e *Engine) Capacity() int64 {
	if e.cfg.Capacity > 0 {
		return e.cfg.Capacity
	}
	return e.cfg.Device.PlannerCapacity()
}

// Pipeline assembles the compile pass sequence the engine's configuration
// implies: schedule-bind → split → validate → one scheduling pass (chosen
// by Planner) → prefetch (async devices with Overlap) → verify.
func (e *Engine) Pipeline() *compiler.Pipeline {
	passes := []compiler.Pass{
		// Bind before split: parts share their source node's operator
		// value, so binding the original binds every part.
		compiler.ScheduleBindPass{Schedule: e.cfg.Schedule},
		compiler.SplitPass{MaxParts: e.cfg.SplitMaxParts},
		compiler.ValidatePass{},
	}
	switch e.cfg.Planner {
	case BaselinePlanner:
		passes = append(passes, compiler.BaselinePass{})
	case PBOptimalPlanner:
		passes = append(passes, compiler.PBPass{MaxConflicts: e.cfg.PBMaxConflicts})
	default:
		passes = append(passes, compiler.HeuristicPass{})
	}
	if (e.cfg.Overlap && e.cfg.Device.AsyncTransfer) || e.cfg.Pipeline {
		// Prefetch reordering also feeds the pipelined executor: hoisted
		// H2Ds have no dependency on the preceding unit's launches, which
		// is exactly what lets the DMA goroutine double-buffer.
		passes = append(passes, compiler.PrefetchPass{})
	}
	passes = append(passes, compiler.ResidencyPass{}, compiler.VerifyPass{})
	return compiler.NewPipeline(passes...)
}

// PassNames returns the assembled pipeline's pass names in execution
// order (what `planview -passes` prints).
func (e *Engine) PassNames() []string { return e.Pipeline().Passes() }

// Compiled is a template compiled for a device: the (possibly split)
// operator graph and its optimized execution plan.
type Compiled struct {
	Graph  *graph.Graph
	Plan   *sched.Plan
	Split  split.Result
	Device gpu.Spec
	// Capacity is the planner memory budget (floats) the plan was
	// compiled against; the resilient executor's degradation ladder
	// replans relative to it.
	Capacity int64
	// PBStatus is set when the PB planner was used.
	PBStatus pb.Result
	// Overlap records that the plan was prefetch-reordered for
	// asynchronous execution; Execute/Simulate then overlap the engines.
	Overlap bool
	// Pipeline routes Execute through the pipelined executor
	// (exec.Options.Pipeline); PipelineWorkers bounds its compute pool.
	Pipeline        bool
	PipelineWorkers int
	// Residency is the residency pass's artifact: the plan's read-only-
	// shareable buffer set (serving layers pin it across jobs) and the
	// rolling-admission lead/tail shape. Always computed; advisory
	// unless Resident opts an execution into elision.
	Residency *sched.Residency
	// Resident marks buffer IDs modeled as already device-resident for
	// this execution (a serving layer's pinned set): their H2D transfers
	// are elided from the report's Actual clock domain while charged
	// Stats and outputs stay bit-identical. Set on per-call copies by
	// Run from RunOptions.Resident; nil for plain executions.
	Resident map[int]bool
	// Obs carries the engine's observer into Execute/Simulate so one
	// trace spans compile and execution.
	Obs *obs.Observer
	// Faults, when non-nil, is installed on every device
	// Execute/Simulate creates (from Config.Faults).
	Faults *gpu.Injector
	// Diags are the pipeline's human-readable per-pass notes.
	Diags []string
}

// Compile runs the compilation pipeline on the template graph. The graph
// is transformed in place by the operator-splitting pass (when
// AutoTuneSplit selects a deeper split, the returned Compiled.Graph is a
// clone and the argument graph holds the default split). Cancellation is
// checked between passes; an infeasible template fails with an error
// matching errors.Is(err, ErrInfeasible).
func (e *Engine) Compile(ctx context.Context, g *graph.Graph) (*Compiled, error) {
	return e.compileObs(ctx, e.cfg.Obs, g)
}

// compileObs is Compile with an explicit observer, so Service can run
// concurrent compiles each under its own forked observer.
func (e *Engine) compileObs(ctx context.Context, o *obs.Observer, g *graph.Graph) (*Compiled, error) {
	if e.cfg.AutoTuneSplit && e.cfg.Planner == HeuristicPlanner {
		return e.compileAutoTuned(ctx, o, g)
	}
	return e.compileWith(ctx, o, g, e.Capacity(), e.Capacity())
}

// autotuneDivisors are the capacity divisors auto-tuning probes, in the
// order candidates are compared; the first (full capacity) is the anchor
// whose failure fails the compile.
var autotuneDivisors = []int64{1, 2, 4}

// compileAutoTuned tries the default capacity plus reduced split targets
// and keeps the plan with the smallest transfer volume. Scheduling always
// uses the full capacity; only the split pass sees the reduced target.
// Candidates compile concurrently (each on its own graph and forked
// observer, over a worker pool bounded by GOMAXPROCS); clones are taken
// up-front because the full-capacity candidate splits g in place, and the
// winner is selected in fixed divisor order with a strict comparison, so
// the result is identical to compiling the candidates sequentially.
func (e *Engine) compileAutoTuned(ctx context.Context, o *obs.Observer, g *graph.Graph) (*Compiled, error) {
	sp := o.T().Begin("autotune", "compile")
	defer sp.End()
	capacity := e.Capacity()

	graphs := make([]*graph.Graph, len(autotuneDivisors))
	graphs[0] = g
	for i := 1; i < len(autotuneDivisors); i++ {
		if capacity/autotuneDivisors[i] > 0 {
			graphs[i] = g.Clone()
		}
	}

	results := make([]*Compiled, len(autotuneDivisors))
	errs := make([]error, len(autotuneDivisors))
	children := make([]*obs.Observer, len(autotuneDivisors))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(autotuneDivisors) {
		workers = len(autotuneDivisors)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, div := range autotuneDivisors {
		if graphs[i] == nil {
			continue // capacity/div underflowed to zero: skip
		}
		children[i] = o.Fork()
		wg.Add(1)
		go func(i int, target int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = e.compileWith(ctx, children[i], graphs[i], target, capacity)
		}(i, capacity/div)
	}
	wg.Wait()
	for _, child := range children {
		o.Join(child) // divisor order keeps the merged trace deterministic
	}

	if errs[0] != nil {
		return nil, errs[0]
	}
	best := results[0]
	for i := 1; i < len(autotuneDivisors); i++ {
		if graphs[i] == nil {
			continue
		}
		if errs[i] != nil {
			// A deeper target being infeasible is survivable — the
			// shallower plan stands — but never silent: the discard shows
			// up in the trace and the metrics.
			o.T().MarkWall("autotune:candidate-failed", "compile", map[string]string{
				"target_floats": fmt.Sprintf("%d", capacity/autotuneDivisors[i]),
				"error":         errs[i].Error(),
			})
			o.M().Counter("autotune_candidate_failed").Inc()
			continue
		}
		if results[i].Plan.TotalTransferFloats() < best.Plan.TotalTransferFloats() {
			best = results[i]
		}
	}
	sp.SetArgf("selected_transfer_floats", "%d", best.Plan.TotalTransferFloats())
	return best, nil
}

// compileWith splits the graph to fit splitTarget floats per operator,
// then schedules against the (possibly larger) planner capacity, by
// running the assembled pass pipeline under one "compile" span.
func (e *Engine) compileWith(ctx context.Context, o *obs.Observer, g *graph.Graph, splitTarget, capacity int64) (*Compiled, error) {
	csp := o.T().Begin("compile", "compile").
		SetArgf("device", "%s", e.cfg.Device.Name).
		SetArgf("planner", "%s", e.cfg.Planner).
		SetArgf("capacity_floats", "%d", capacity)
	defer csp.End()
	c := &compiler.Compilation{
		Graph: g, Device: e.cfg.Device,
		Capacity: capacity, SplitTarget: splitTarget, Obs: o,
	}
	if err := e.Pipeline().Run(ctx, c); err != nil {
		if errors.Is(err, sched.ErrInfeasible) || errors.Is(err, split.ErrInfeasible) {
			// Surface the typed verdict alongside the pass detail: callers
			// branch on errors.Is(err, ErrInfeasible), humans read the rest.
			return nil, fmt.Errorf("core: %w: %w", ErrInfeasible, err)
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Compiled{
		Graph: c.Graph, Plan: c.Plan, Split: c.Split,
		Device: e.cfg.Device, Capacity: capacity,
		PBStatus: c.PBStatus, Overlap: c.Overlap,
		Pipeline: e.cfg.Pipeline, PipelineWorkers: e.cfg.PipelineWorkers,
		Residency: c.Residency,
		Obs:       o, Faults: e.cfg.Faults, Diags: c.Diags,
	}, nil
}

// newDevice builds a fresh simulated device for one execution, with the
// configured fault injector (if any) installed.
func (c *Compiled) newDevice() *gpu.Device {
	dev := gpu.New(c.Device)
	dev.SetInjector(c.Faults)
	return dev
}

// RunOptions selects how a compiled artifact executes. The zero value is
// a plain materialized execution (which still needs Inputs); flags
// compose freely, and every combination lowers onto the single
// exec.Run(ctx, ...) entry point.
type RunOptions struct {
	// Inputs supplies the template's root input tensors for a
	// materialized execution. Ignored when Simulate is set.
	Inputs exec.Inputs
	// Simulate replays the plan in accounting mode: byte-exact memory,
	// transfer, and timing behaviour without materializing data — the
	// mode paper-scale footprints run in.
	Simulate bool
	// Resilient executes under exec's resilient driver: transient-fault
	// retry, checkpoint/restart on device loss, and the OOM degradation
	// ladder (replan at reduced budgets relative to the artifact's
	// Capacity, then the CPU reference for materialized runs).
	Resilient bool
	// Faults overrides the fault injector installed on the execution's
	// device (nil → the engine's configured Config.Faults).
	Faults *gpu.Injector
	// Resident overrides the artifact's resident buffer set for this run
	// (a serving layer's pinned set); nil keeps the artifact's own.
	Resident map[int]bool
	// Sink, when non-nil, receives this execution's device-phase spans
	// and recovery instants in addition to the service trace. Honored by
	// Service.Run; Compiled.Run ignores it (it has no fork/join scope).
	Sink *obs.Tracer
}

// Run executes the compiled plan on a fresh simulated device under the
// selected RunOptions, lowering every mode combination onto exec.Run.
// Plans compiled with Config.Pipeline run materialized executions under
// the pipelined driver (identical results and statistics, concurrent
// host execution); resilient runs are sequential so checkpoints land at
// deterministic step boundaries. Cancellation is checked at step
// boundaries and leaves the device pristine.
func (c *Compiled) Run(ctx context.Context, opt RunOptions) (*exec.Report, error) {
	dev := c.newDevice()
	if opt.Faults != nil {
		dev.SetInjector(opt.Faults)
	}
	resident := c.Resident
	if opt.Resident != nil {
		resident = opt.Resident
	}
	eo := exec.Options{
		Mode: exec.Materialized, Device: dev, Overlap: c.Overlap,
		Obs: c.Obs, Resident: resident,
	}
	in := opt.Inputs
	if opt.Simulate {
		eo.Mode = exec.Accounting
		in = nil
	} else {
		eo.Pipeline = c.Pipeline
		eo.PipelineWorkers = c.PipelineWorkers
	}
	if opt.Resilient {
		eo.Resilient = &exec.Resilience{Capacity: c.Capacity}
	}
	return exec.Run(ctx, c.Graph, c.Plan, in, eo)
}

// Execute runs the compiled plan with real data: Run with inputs only.
func (c *Compiled) Execute(ctx context.Context, in exec.Inputs) (*exec.Report, error) {
	return c.Run(ctx, RunOptions{Inputs: in})
}

// Simulate replays the compiled plan in accounting mode: Run with the
// Simulate flag.
func (c *Compiled) Simulate(ctx context.Context) (*exec.Report, error) {
	return c.Run(ctx, RunOptions{Simulate: true})
}

// GenerateCUDA emits the hybrid CPU/GPU CUDA source for the plan.
func (c *Compiled) GenerateCUDA(templateName string) string {
	return codegen.CUDA(c.Graph, c.Plan, templateName)
}

// GenerateKernelStubs emits reference C implementations of the operator
// entry points the generated CUDA program links against.
func (c *Compiled) GenerateKernelStubs() string {
	return codegen.KernelStubs(c.Plan)
}

// TransferFloats returns the plan's total host↔GPU volume.
func (c *Compiled) TransferFloats() int64 { return c.Plan.TotalTransferFloats() }
