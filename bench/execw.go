package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/templates"
	"repro/internal/workload"
)

// variant is one way of driving the same plan through exec.Run. The span
// of a run carries the variant's name.
type variant string

const (
	matSeq     variant = "exec.materialized_seq"
	matPipe    variant = "exec.materialized_pipe"
	accounting variant = "exec.accounting"
	resilient  variant = "exec.resilient_accounting"
)

// execInst is the exec_sequential / exec_pipelined workload: one plan of
// the Small CNN against an arena small enough to chunk, evict and
// re-upload, run materialized on a fresh device per op. The compiler does
// nothing during an op.
type execInst struct {
	own      variant // the workload's op: matSeq or matPipe
	spec     gpu.Spec
	capacity int64
	g        *graph.Graph
	base     *sched.Plan // before the prefetch hoist
	plan     *sched.Plan
	in       exec.Inputs
	ref      exec.Outputs
	want     planFacts

	// Trace-only side measurements, in ms unless named otherwise.
	dmaBusy, computeBusy, pipeSpan  []float64
	stepDeps, prefetch, allocPairNS []float64
	stats                           gpu.Stats
}

func setupExec(own variant, seed int64, want *expectedFile) (*execInst, error) {
	g, bufs, err := templates.CNN(templates.SmallCNN(160, 120))
	if err != nil {
		return nil, err
	}
	e := &execInst{own: own, g: g, want: want.Exec}
	e.in = workload.CNNInputs(bufs, seed)
	// The reference interprets the template before the split pass rewrites
	// it, so it shares nothing with the plan under test.
	if e.ref, err = exec.RunReference(g, e.in); err != nil {
		return nil, err
	}
	// 512 KiB with the headroom experiments.Pipeline uses: the regime the
	// pipelined driver targets.
	e.spec = gpu.Custom("bench-arena", 512<<10)
	e.spec.Headroom = 0.7
	e.capacity = e.spec.PlannerCapacity()
	if _, err := split.Apply(g, split.Options{Capacity: e.capacity}); err != nil {
		return nil, err
	}
	if e.base, err = sched.Heuristic(g, e.capacity); err != nil {
		return nil, err
	}
	e.plan = sched.PrefetchH2D(e.base, e.capacity*9/10)
	if err := sched.Verify(g, e.plan, e.capacity); err != nil {
		return nil, fmt.Errorf("exec: sched.Verify: %w", err)
	}
	if err := e.want.check("exec plan", factsOfPlan(e.plan)); err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ { // warm-up
		if _, _, err := e.op(0, i, nil); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	return e, nil
}

// run executes the plan once on a fresh device and checks the result
// after the clock has stopped.
func (e *execInst) run(v variant, wall *gpu.Trace) (float64, *exec.Report, error) {
	opt := exec.Options{Mode: exec.Materialized, Device: gpu.New(e.spec)}
	in := e.in
	switch v {
	case matPipe:
		// One compute worker: with the DMA goroutine that is two busy
		// threads, what the box has.
		opt.Pipeline, opt.PipelineWorkers, opt.WallTrace = true, 1, wall
	case accounting:
		opt.Mode, in = exec.Accounting, nil
	case resilient:
		opt.Mode, in = exec.Accounting, nil
		opt.Resilient = &exec.Resilience{Capacity: e.capacity}
	}
	t0 := time.Now()
	rep, err := exec.Run(context.Background(), e.g, e.plan, in, opt)
	ms := msSince(t0)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", v, err)
	}
	if err := e.want.check(string(v), factsOfReport(rep)); err != nil {
		return 0, nil, err
	}
	if opt.Mode == exec.Materialized {
		if len(rep.Outputs) != len(e.ref) {
			return 0, nil, fmt.Errorf("%s: %d outputs, reference has %d", v, len(rep.Outputs), len(e.ref))
		}
		for id, want := range e.ref {
			if got := rep.Outputs[id]; got == nil || !got.Equal(want) {
				return 0, nil, fmt.Errorf("%s: output %d differs from exec.RunReference", v, id)
			}
		}
	}
	return ms, rep, nil
}

func (e *execInst) op(_, i int, tr *tracer) (float64, opStats, error) {
	if tr == nil {
		ms, _, err := e.run(e.own, nil)
		return ms, e.want.stats(), err
	}
	// Traced: the workload's own op, then the other variants of the same
	// plan, so all four see the same box within a second. The other
	// materialized driver goes last: the next own op then follows a run
	// that leaves the heap as a plain op's predecessor does.
	var opMS float64
	other := matPipe
	if e.own == matPipe {
		other = matSeq
	}
	order := []variant{e.own, accounting, resilient, other}
	for _, v := range order {
		var wall *gpu.Trace
		if v == matPipe {
			wall = &gpu.Trace{}
		}
		id := tr.begin(string(v), i, -1)
		ms, rep, err := e.run(v, wall)
		tr.end(id)
		if err != nil {
			return 0, opStats{}, err
		}
		if v == e.own {
			opMS = ms
		}
		if wall != nil {
			e.dmaBusy = append(e.dmaBusy, wall.BusyTime("dma")*1e3)
			e.computeBusy = append(e.computeBusy, wall.BusyTime("compute")*1e3)
			e.pipeSpan = append(e.pipeSpan, wall.Span()*1e3)
		}
		e.stats = rep.Stats
	}
	return opMS, e.want.stats(), nil
}

// after times, once per traced block, the calls a pipelined run makes
// besides the steps themselves.
func (e *execInst) after(int, *tracer) error {
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		if _, err := sched.StepDeps(e.plan); err != nil {
			return err
		}
		e.stepDeps = append(e.stepDeps, msSince(t0))
		t0 = time.Now()
		sched.PrefetchH2D(e.base, e.capacity*9/10)
		e.prefetch = append(e.prefetch, msSince(t0))
	}
	bufs := e.plan.Buffers()
	a := gpu.NewAllocator(e.spec.MemoryBytes)
	t0 := time.Now()
	for _, b := range bufs {
		off, err := a.Alloc(b.Bytes())
		if err != nil {
			return err
		}
		if err := a.Free(off); err != nil {
			return err
		}
	}
	e.allocPairNS = append(e.allocPairNS, float64(time.Since(t0).Nanoseconds())/float64(len(bufs)))
	return nil
}

func (e *execInst) layers(tr *tracer, m map[string]float64) {
	for name, l := range byLayer(tr.spans) {
		m[name+"_ms"] = median(l.totalMS)
	}
	acct, seq, pipe := m[string(accounting)+"_ms"], m[string(matSeq)+"_ms"], m[string(matPipe)+"_ms"]
	m["exec.resilient_over_plain"] = m[string(resilient)+"_ms"] / acct
	m["exec.pipe_over_seq"] = pipe / seq
	// Kernels, host copies and tensor allocation: what materializing adds
	// to walking the same steps.
	m["ops.kernel_ms"] = seq - acct
	m["exec.pipe.dma_busy_ms"] = median(e.dmaBusy)
	m["exec.pipe.compute_busy_ms"] = median(e.computeBusy)
	m["exec.pipe.span_ms"] = median(e.pipeSpan)
	m["exec.pipe.engines_busy_pct"] = (median(e.dmaBusy) + median(e.computeBusy)) / median(e.pipeSpan) * 100
	m["sched.stepdeps_ms"] = median(e.stepDeps)
	m["sched.prefetch_ms"] = median(e.prefetch)
	m["gpu.alloc_pair_ns"] = median(e.allocPairNS)
	m["exec.steps"] = float64(len(e.plan.Steps))
	m["gpu.h2d_calls"] = float64(e.stats.H2DCalls)
	m["gpu.d2h_calls"] = float64(e.stats.D2HCalls)
	m["gpu.kernel_launches"] = float64(e.stats.KernelLaunches)
}

func (e *execInst) finish() error { return nil }

func (e *execInst) close() {}

func (e *execInst) opSpan() string { return string(e.own) }
