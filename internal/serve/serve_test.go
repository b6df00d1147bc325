package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/templates"
	"repro/internal/workload"
)

// withGate installs the worker-freeze test hook.
func withGate(ch chan struct{}) PoolOption {
	return func(c *poolConfig) { c.gate = ch }
}

func edgeGraph(t *testing.T, h, w, k int) *graph.Graph {
	t.Helper()
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: h, ImageW: w, KernelSize: k, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// An accounting job through the pool must report exactly what a direct
// service simulation of the same template reports.
func TestAccountingJobMatchesDirectSimulate(t *testing.T) {
	spec := gpu.TeslaC870()
	svc := core.NewService(core.WithDevice(spec))
	want, err := svc.CompileAndSimulate(context.Background(), edgeGraph(t, 64, 48, 5))
	if err != nil {
		t.Fatal(err)
	}

	p := NewPool(WithDevices(spec))
	defer p.Close()
	j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 64, 48, 5)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats != want.Stats {
		t.Fatalf("pool stats %+v != direct %+v", rep.Stats, want.Stats)
	}
	st := j.Status()
	if st.State != StateDone || st.Device != spec.Name || st.CacheHit {
		t.Fatalf("status = %+v", st)
	}
}

// A materialized job must produce the reference outputs, through a device
// small enough that the plan genuinely splits and evicts.
func TestMaterializedJobMatchesReference(t *testing.T) {
	g, bufs, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 64, ImageW: 48, KernelSize: 5, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := workload.EdgeInputs(bufs, 7)
	want, err := exec.RunReference(g, in)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPool(WithDevices(gpu.Custom("serve-small", 256<<10)))
	defer p.Close()
	j, err := p.Submit(context.Background(), Request{Graph: g, Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		if !rep.Outputs[id].AlmostEqual(w, 1e-3) {
			t.Fatalf("output %d differs from reference", id)
		}
	}
}

// Identical-fingerprint requests submitted while the queue is frozen must
// coalesce into one batch: one compile, one execution, shared report.
func TestCoalescingSharesOneCompileAndBatch(t *testing.T) {
	gate := make(chan struct{})
	o := obs.New()
	p := NewPool(WithDevices(gpu.TeslaC870()), WithStreams(1), WithObserver(o),
		WithMaxBatch(8), withGate(gate))
	defer p.Close()

	const n = 5
	jobs := make([]*Job, n)
	for i := range jobs {
		j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 40, 32, 5)})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	close(gate)

	for i, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		st := j.Status()
		if st.BatchSize != n {
			t.Fatalf("job %d batch size = %d, want %d", i, st.BatchSize, n)
		}
		if (i == 0) == st.Coalesced {
			t.Fatalf("job %d coalesced = %v", i, st.Coalesced)
		}
	}
	if v := o.M().Counter("serve.coalesced").Value(); v != n-1 {
		t.Fatalf("coalesced counter = %d, want %d", v, n-1)
	}
	cs := p.devices[0].svc.CacheStats()
	if cs.Misses != 1 || cs.Hits != 0 {
		t.Fatalf("coalesced batch compiled %d times (hits %d), want one miss", cs.Misses, cs.Hits)
	}
	// All five jobs share the single accounting execution.
	if got := p.Stats().Devices[0].Completed; got != n {
		t.Fatalf("completed = %d, want %d", got, n)
	}
}

// With workers frozen and a depth-1 queue, the second distinct submission
// must be rejected with ErrQueueFull.
func TestQueueFullBackpressure(t *testing.T) {
	gate := make(chan struct{})
	p := NewPool(WithDevices(gpu.TeslaC870()), WithStreams(1), WithQueueDepth(1), withGate(gate))
	defer p.Close()

	if _, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 40, 32, 5)}); err != nil {
		t.Fatal(err)
	}
	_, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 64, 48, 5)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	close(gate)
}

// A job whose deadline passes while the queue is frozen must fail with
// ErrDeadlineExceeded and never execute.
func TestDeadlineExpiresInQueue(t *testing.T) {
	gate := make(chan struct{})
	p := NewPool(WithDevices(gpu.TeslaC870()), WithStreams(1), withGate(gate))
	defer p.Close()

	j, err := p.Submit(context.Background(),
		Request{Graph: edgeGraph(t, 40, 32, 5), Deadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if _, err := j.Wait(context.Background()); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if st := j.Status(); st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if got := p.Stats().Devices[0].Completed; got != 0 {
		t.Fatalf("expired job executed (completed = %d)", got)
	}
}

// A template no pool device can host must surface core.ErrInfeasible
// through Submit.
func TestInfeasibleSurfacesCoreSentinel(t *testing.T) {
	p := NewPool(WithDevices(gpu.Custom("tiny-a", 4096), gpu.Custom("tiny-b", 8192)),
		WithServiceOptions(core.WithCapacity(3)))
	defer p.Close()
	_, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 40, 32, 5)})
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want core.ErrInfeasible", err)
	}
}

// A cancelled submission context must abort admission, not execution.
func TestSubmitHonorsContext(t *testing.T) {
	p := NewPool(WithDevices(gpu.TeslaC870()))
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.Submit(ctx, Request{Graph: edgeGraph(t, 40, 32, 5)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The -race stress: concurrent clients submit a mix of templates (some
// identical, inviting coalescing) against a two-device pool; every job
// must finish with the stats a solo run produces.
func TestPoolConcurrentStress(t *testing.T) {
	specs := []gpu.Spec{gpu.TeslaC870(), gpu.GeForce8800GTX()}
	dims := [][3]int{{40, 32, 5}, {64, 48, 5}, {80, 64, 7}}

	solo := make(map[int]gpu.Stats)
	for i, d := range dims {
		svc := core.NewService(core.WithDevice(specs[0]))
		rep, err := svc.CompileAndSimulate(context.Background(), edgeGraph(t, d[0], d[1], d[2]))
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = rep.Stats
	}

	o := obs.New()
	p := NewPool(WithDevices(specs...), WithStreams(2), WithObserver(o))
	defer p.Close()

	const clients, perClient = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				di := (c + i) % len(dims)
				d := dims[di]
				j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, d[0], d[1], d[2])})
				if err != nil {
					errs <- fmt.Errorf("client %d submit: %w", c, err)
					return
				}
				rep, err := j.Wait(context.Background())
				if err != nil {
					errs <- fmt.Errorf("client %d wait: %w", c, err)
					return
				}
				// Both devices compile the same split graph (same planner
				// capacity class) — but only same-device stats are
				// guaranteed identical, so compare transfer volume, which
				// is device-independent here.
				if rep.Stats.TotalFloats() != solo[di].TotalFloats() {
					errs <- fmt.Errorf("client %d dim %v: floats %d != solo %d",
						c, d, rep.Stats.TotalFloats(), solo[di].TotalFloats())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := p.Stats()
	var completed int64
	for _, d := range st.Devices {
		completed += d.Completed
		if d.CommittedBytes != 0 {
			t.Fatalf("device %s still has %d bytes committed after drain", d.Name, d.CommittedBytes)
		}
	}
	if completed != clients*perClient {
		t.Fatalf("completed = %d, want %d", completed, clients*perClient)
	}
	if st.ModeledMakespanSec <= 0 || st.ModeledBusySec < st.ModeledMakespanSec {
		t.Fatalf("modeled clocks inconsistent: makespan %v busy %v",
			st.ModeledMakespanSec, st.ModeledBusySec)
	}
}

// Close must drain queued jobs, then reject new ones with ErrClosed.
func TestCloseDrainsAndRejects(t *testing.T) {
	p := NewPool(WithDevices(gpu.TeslaC870()), WithStreams(1))
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 40, 32, 5)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	p.Close()
	for i, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("queued job %d lost at close: %v", i, err)
		}
	}
	if _, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 40, 32, 5)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// A pool whose test gate is never opened must still Close — the gate
// yields to Close and the queued job drains — so a gated test that fails
// before opening its gate cannot hang the package in its deferred Close.
func TestCloseOpensGate(t *testing.T) {
	p := NewPool(WithDevices(gpu.TeslaC870()), WithStreams(2), withGate(make(chan struct{})))
	j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 40, 32, 5)})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung behind a gate that was never opened")
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatalf("queued job lost at close: %v", err)
	}
}

// Every goroutine a pool starts — worker streams, the deadline sweeper, a
// quarantined device's prober, cancellation bridges and batch-context
// watchers — is gone once Close returns, whatever its jobs went through:
// a queued cancellation, a queue-deadline expiry, a device loss with
// migration and probing, an in-flight cancellation, and completion under a
// caller context that is never cancelled.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	inj := gpu.NewInjector(1)
	for op := 0; op <= 3; op++ {
		inj.FailAt(gpu.FaultDeviceLost, op, gpu.Persistent)
	}
	gate := make(chan struct{})
	p := NewPool(WithDevices(gpu.TeslaC870(), gpu.GeForce8800GTX()), withGate(gate),
		WithDeviceFaults("Tesla C870", inj), WithHealthPolicy(HealthPolicy{ProbeInterval: 5 * time.Millisecond}))

	wait := func(req Request, cancel bool, want error) {
		t.Helper()
		req.Graph = edgeGraph(t, 40, 32, 5)
		j, err := p.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if cancel {
			j.Cancel()
		}
		if _, err := j.Wait(context.Background()); !errors.Is(err, want) {
			t.Fatalf("job error = %v, want %v", err, want)
		}
	}
	wait(Request{}, true, ErrCancelled)
	wait(Request{Deadline: 5 * time.Millisecond}, false, ErrDeadlineExceeded)
	close(gate)
	wait(Request{}, false, nil) // the C870 dies under it; it migrates
	wait(Request{Ctx: lateCancelCtx(2)}, false, ErrCancelled)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait(Request{Ctx: ctx}, false, nil)
	if p.Stats().MigratedJobs != 1 {
		t.Fatalf("stats = %+v, want one migrated job", p.Stats())
	}
	p.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the pool", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
