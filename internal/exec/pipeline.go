// Pipelined plan execution: the linear plan becomes a step-dependency DAG
// (sched.StepDeps) and executes concurrently — one DMA goroutine drains
// transfer steps in plan order while a bounded worker pool drains kernel
// launches — so materialized runs overlap real copy work with real compute
// work on the host, the way an asynchronous GPU runtime overlaps DMA with
// kernels. Double-buffering falls out of the dependency structure: with a
// prefetch-hoisted plan, chunk k+1's H2D has no edge to chunk k's launch
// and the two proceed simultaneously.
//
// Equivalence guarantees (asserted by tests across every paper workload):
// outputs are bit-identical to sequential Run in Materialized mode, and
// statistics are bit-identical on the simulated clock, because all clock
// and statistics charges are replayed in plan order after the concurrent
// perform phase (see executor.perform / executor.account).
package exec

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
)

// runPipelined executes the plan concurrently under the step-dependency
// DAG (Run with Options.Pipeline). It enforces the same memory and
// data-validity constraints as sequential execution and produces the
// identical Report; the only difference is host wall-clock time. The
// device must be pristine.
//
// On a step failure the concurrent dispatch stops, in-flight steps drain,
// and the partial report carries no simulated-time charges for performed
// steps (charges replay only on success); the first error is returned.
// Cancellation is checked at every scheduler round and fails the run the
// same way, with an error wrapping ctx.Err(). Either way the drained
// steps' allocations are released (executor.abort), so the device stays
// pristine.
func runPipelined(ctx context.Context, g *graph.Graph, plan *sched.Plan, in Inputs, opt Options) (*Report, error) {
	e, err := newExecutor(g, plan, in, opt)
	if err != nil {
		return nil, err
	}
	deps, err := sched.StepDeps(plan)
	if err != nil {
		return nil, err
	}
	r := newPipeRunner(e, deps, opt)
	if err := r.run(ctx); err != nil {
		return e.abort(err)
	}
	// Deterministic accounting replay: every charge, trace event, and
	// metric lands in plan order, bit-identical to sequential execution.
	for si, step := range plan.Steps {
		e.account(si, step)
	}
	return e.finish()
}

// stepDone is a completion notice from an engine goroutine.
type stepDone struct {
	idx int
	err error
}

// pipeRunner owns the engine goroutines and the dependency-counting
// scheduler of one pipelined execution.
type pipeRunner struct {
	e       *executor
	plan    *sched.Plan
	deps    *sched.Deps
	workers int

	dmaCh  chan int // transfer steps ready to execute
	compCh chan int // launch steps ready to execute
	doneCh chan stepDone

	// transfers lists the plan indices of H2D/D2H steps in plan order:
	// the single DMA engine executes them in exactly this order (a ready
	// later transfer waits for earlier ones), modeling one DMA queue.
	transfers []int

	wallStart time.Time
	wallTrace *gpu.Trace // optional host wall-clock timeline (opt.WallTrace)

	dmaTracer   *obs.Tracer
	compTracers []*obs.Tracer
	wg          sync.WaitGroup
}

func newPipeRunner(e *executor, deps *sched.Deps, opt Options) *pipeRunner {
	w := opt.PipelineWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	n := len(e.plan.Steps)
	r := &pipeRunner{
		e: e, plan: e.plan, deps: deps, workers: w,
		dmaCh:     make(chan int, n),
		compCh:    make(chan int, n),
		doneCh:    make(chan stepDone, n),
		wallStart: time.Now(),
		wallTrace: opt.WallTrace,
	}
	for i, s := range e.plan.Steps {
		if s.Kind == sched.StepH2D || s.Kind == sched.StepD2H {
			r.transfers = append(r.transfers, i)
		}
	}
	return r
}

// execStep performs one step on an engine goroutine, recording its real
// wall-clock interval on the goroutine's forked tracer lane and, when
// requested, in the wall trace.
func (r *pipeRunner) execStep(i int, tr *obs.Tracer, track, engine string) error {
	step := r.plan.Steps[i]
	t0 := tr.NowSeconds()
	var w0 float64
	if r.wallTrace != nil {
		w0 = time.Since(r.wallStart).Seconds()
	}
	err := r.e.perform(i, step)
	tr.AddWall(track, stepLabel(step), strings.ToLower(step.Kind.String()), t0, tr.NowSeconds())
	if r.wallTrace != nil {
		r.wallTrace.Add(gpu.Event{
			Kind:   stepEventKind(step.Kind),
			Label:  stepLabel(step),
			Engine: engine,
			Start:  w0,
			End:    time.Since(r.wallStart).Seconds(),
		})
	}
	return err
}

func stepLabel(s sched.Step) string {
	switch s.Kind {
	case sched.StepLaunch:
		return s.Node.Name
	case sched.StepSync:
		return "sync"
	}
	return s.Buf.Name
}

func stepEventKind(k sched.StepKind) gpu.EventKind {
	switch k {
	case sched.StepD2H:
		return gpu.EventD2H
	case sched.StepLaunch:
		return gpu.EventKernel
	case sched.StepSync:
		return gpu.EventSync
	}
	return gpu.EventH2D
}

// start launches the DMA goroutine and the compute-worker pool. Channels
// are buffered to the full plan length, so no engine send ever blocks and
// the scheduler cannot deadlock against its workers.
func (r *pipeRunner) start() {
	parent := r.e.obs.T()
	r.dmaTracer = parent.Fork()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		// Reorder buffer: dispatched transfers execute strictly in plan
		// order. A held transfer only ever waits for lower plan indices,
		// whose transitive dependencies are all lower still, so the
		// engine cannot deadlock.
		held := make(map[int]bool)
		k := 0
		for idx := range r.dmaCh {
			held[idx] = true
			for k < len(r.transfers) && held[r.transfers[k]] {
				i := r.transfers[k]
				delete(held, i)
				k++
				r.doneCh <- stepDone{i, r.execStep(i, r.dmaTracer, "pipe:dma", "dma")}
			}
		}
	}()
	r.compTracers = make([]*obs.Tracer, r.workers)
	for w := 0; w < r.workers; w++ {
		tr := parent.Fork()
		r.compTracers[w] = tr
		track := fmt.Sprintf("pipe:compute-%d", w)
		r.wg.Add(1)
		go func(tr *obs.Tracer, track string) {
			defer r.wg.Done()
			for idx := range r.compCh {
				r.doneCh <- stepDone{idx, r.execStep(idx, tr, track, "compute")}
			}
		}(tr, track)
	}
}

// run drives the DAG to completion: a dependency-counting scheduler
// dispatches transfer steps to the DMA engine and launches to the compute
// pool, and executes frees and syncs inline (they are cheap bookkeeping).
// The first step error cancels all further dispatch; in-flight steps
// drain before run returns it.
func (r *pipeRunner) run(ctx context.Context) error {
	n := len(r.plan.Steps)
	if n == 0 {
		return nil
	}
	pending := make([]int, n)
	succs := make([][]int, n)
	for i, ds := range r.deps.Deps {
		pending[i] = len(ds)
		for _, d := range ds {
			succs[d] = append(succs[d], i)
		}
	}

	r.start()
	defer func() {
		close(r.dmaCh)
		close(r.compCh)
		r.wg.Wait()
		// Engine lanes merge back in a fixed order so the trace layout is
		// stable run to run.
		parent := r.e.obs.T()
		parent.Merge(r.dmaTracer)
		for _, tr := range r.compTracers {
			parent.Merge(tr)
		}
	}()

	var queue []int
	for i := 0; i < n; i++ {
		if pending[i] == 0 {
			queue = append(queue, i)
		}
	}

	completed := 0
	inflight := 0
	var firstErr error
	complete := func(idx int, err error) {
		completed++
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		for _, s := range succs[idx] {
			pending[s]--
			if pending[s] == 0 {
				queue = append(queue, s)
			}
		}
	}

	for completed < n && firstErr == nil {
		if err := ctx.Err(); err != nil {
			// Stop dispatching; the deferred close/wait drains in-flight
			// steps before abort releases their allocations.
			firstErr = fmt.Errorf("exec: cancelled with %d/%d steps completed: %w", completed, n, err)
			break
		}
		// Dispatch everything ready. Inline steps complete immediately
		// and may extend the queue mid-walk, hence the index loop.
		for qi := 0; qi < len(queue) && firstErr == nil; qi++ {
			i := queue[qi]
			switch r.plan.Steps[i].Kind {
			case sched.StepH2D, sched.StepD2H:
				r.dmaCh <- i
				inflight++
			case sched.StepLaunch:
				r.compCh <- i
				inflight++
			default: // StepFree, StepSync
				complete(i, r.e.perform(i, r.plan.Steps[i]))
			}
		}
		queue = queue[:0]
		if completed == n || firstErr != nil {
			break
		}
		if inflight == 0 {
			// Nothing running and nothing ready: a dependency cycle,
			// which StepDeps rules out by construction.
			return fmt.Errorf("exec: pipeline stalled with %d/%d steps completed", completed, n)
		}
		d := <-r.doneCh
		inflight--
		complete(d.idx, d.err)
	}
	return firstErr
}
