package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/obs"
)

// countdownCtx cancels deterministically after its Err has been consulted
// n times — the exec package's pattern for mid-plan cancellation without
// racing a timer against the executor.
type countdownCtx struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
	if c.n < 0 {
		return context.Canceled
	}
	return nil
}

func countdown(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), n: n}
}

// A device that dies permanently must be quarantined and every job —
// queued or in flight — re-placed onto the healthy device with zero loss.
func TestQuarantineMigratesEveryJob(t *testing.T) {
	const sick, healthy = "Tesla C870", "GeForce 8800 GTX"
	inj := gpu.NewInjector(1).SetRate(gpu.FaultDeviceLost, 1.0, gpu.Persistent)
	p := NewPool(
		WithDevices(gpu.TeslaC870(), gpu.GeForce8800GTX()),
		WithDeviceFaults(sick, inj),
		WithHealthPolicy(HealthPolicy{ProbeInterval: time.Hour}), // no recovery
		WithQueueDepth(32),
	)
	defer p.Close()

	var jobs []*Job
	for i := 0; i < 6; i++ {
		// Distinct dimensions defeat coalescing so placement spreads.
		j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 48+4*i, 40, 5)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job %d lost: %v", i, err)
		}
		if st := j.Status(); st.Device != healthy {
			t.Fatalf("job %d finished on %q, want %q (status %+v)", i, st.Device, healthy, st)
		}
	}

	st := p.Stats()
	if st.HealthyDevices != 1 {
		t.Fatalf("healthy devices = %d, want 1", st.HealthyDevices)
	}
	for _, d := range st.Devices {
		switch d.Name {
		case sick:
			if d.Health != "quarantined" || d.Completed != 0 || d.Quarantines != 1 {
				t.Fatalf("sick device stats = %+v", d)
			}
			if d.MigratedOut == 0 {
				t.Fatalf("sick device migrated nothing out: %+v", d)
			}
		case healthy:
			if d.Health != "healthy" || d.Completed != 6 {
				t.Fatalf("healthy device stats = %+v", d)
			}
		}
	}
	if st.MigratedJobs == 0 {
		t.Fatal("pool recorded no migrated jobs")
	}
}

// A quarantined device whose faults were transient must be probed back
// into rotation and then serve work again.
func TestProbeRecoveryReturnsToRotation(t *testing.T) {
	// The first execution hits a device-lost window wide enough to
	// exhaust the replay budget (ops 0..3); the first probe (op 4+) runs
	// clean and readmits the device.
	inj := gpu.NewInjector(1)
	for op := 0; op <= 3; op++ {
		inj.FailAt(gpu.FaultDeviceLost, op, gpu.Persistent)
	}
	p := NewPool(
		WithDevices(gpu.TeslaC870()),
		WithDeviceFaults("Tesla C870", inj),
		WithHealthPolicy(HealthPolicy{ProbeInterval: 5 * time.Millisecond}),
	)
	defer p.Close()

	j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 48, 40, 5)})
	if err != nil {
		t.Fatal(err)
	}
	// The only device dies; migration has nowhere to go, so the job
	// fails with the typed shed error.
	if _, err := j.Wait(context.Background()); !errors.Is(err, ErrRetryAfter) {
		t.Fatalf("job err = %v, want ErrRetryAfter", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := p.Stats().Devices[0].Health; h == "recovered" || h == "healthy" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("device never recovered: %+v", p.Stats().Devices[0])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Back in rotation: new work completes, and the clean execution
	// promotes recovered → healthy.
	j2, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 48, 40, 5)})
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatalf("job after recovery: %v", err)
	}
	d := p.Stats().Devices[0]
	if d.Health != "healthy" || d.Quarantines != 1 || d.Probes == 0 {
		t.Fatalf("post-recovery stats = %+v", d)
	}
}

// withBreaker sets the circuit breaker's trip threshold and cooldown.
func withBreaker(threshold int, cooldown time.Duration) PoolOption {
	return func(c *poolConfig) { c.breakThresh, c.breakCool = threshold, cooldown }
}

// Terminal pool failures open the circuit breaker, which sheds further
// submissions with ErrRetryAfter and a backoff hint.
func TestBreakerShedsWithRetryAfter(t *testing.T) {
	inj := gpu.NewInjector(1).SetRate(gpu.FaultDeviceLost, 1.0, gpu.Persistent)
	p := NewPool(
		WithDevices(gpu.TeslaC870()),
		WithDeviceFaults("Tesla C870", inj),
		WithHealthPolicy(HealthPolicy{ProbeInterval: time.Hour}),
		withBreaker(1, time.Hour),
	)
	defer p.Close()

	j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 48, 40, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("job on a dead single-device pool should fail")
	}

	st := p.Stats()
	if !st.BreakerOpen || st.BreakerOpens != 1 {
		t.Fatalf("breaker = open %v opens %d, want open after 1 terminal failure",
			st.BreakerOpen, st.BreakerOpens)
	}
	_, err = p.Submit(context.Background(), Request{Graph: edgeGraph(t, 48, 40, 5)})
	if !errors.Is(err, ErrRetryAfter) {
		t.Fatalf("submit err = %v, want ErrRetryAfter", err)
	}
	if after, ok := RetryAfter(err); !ok || after < time.Second {
		t.Fatalf("RetryAfter = %v %v, want a backoff of at least 1s", after, ok)
	}
}

// Eager deadline expiry: a job expiring in the queue of a stalled device
// must free its slot immediately — new work is admitted while the worker
// is still frozen. This is the backpressure regression the heap-based
// sweeper exists for: with dequeue-time-only expiry the depth-1 queue
// would stay poisoned until the device unstalled.
func TestEagerExpiryFreesStalledQueue(t *testing.T) {
	gate := make(chan struct{})
	p := NewPool(WithDevices(gpu.TeslaC870()), WithStreams(1), WithQueueDepth(1), withGate(gate))
	defer p.Close()

	a, err := p.Submit(context.Background(), Request{
		Graph: edgeGraph(t, 40, 32, 5), Deadline: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Queue full while a sits in it.
	if _, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 64, 48, 5)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow err = %v, want ErrQueueFull", err)
	}

	if _, err := a.Wait(context.Background()); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired job err = %v, want ErrDeadlineExceeded", err)
	}
	if st := a.Status(); st.State != StateFailed || st.BatchSize != 0 {
		t.Fatalf("expired job status = %+v, want failed without ever starting", st)
	}

	// The slot is free while the worker is STILL gated.
	var b *Job
	deadline := time.Now().Add(2 * time.Second)
	for {
		b, err = p.Submit(context.Background(), Request{Graph: edgeGraph(t, 64, 48, 5)})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) || time.Now().After(deadline) {
			t.Fatalf("resubmit after expiry: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)
	if _, err := b.Wait(context.Background()); err != nil {
		t.Fatalf("job after expiry: %v", err)
	}
}

// Cancelling a queued job fails it with ErrCancelled and frees its queue
// slot eagerly, like deadline expiry.
func TestCancelQueuedJobFreesSlot(t *testing.T) {
	gate := make(chan struct{})
	p := NewPool(WithDevices(gpu.TeslaC870()), WithStreams(1), WithQueueDepth(1), withGate(gate))
	defer p.Close()

	a, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 40, 32, 5)})
	if err != nil {
		t.Fatal(err)
	}
	a.Cancel()
	if _, err := a.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled job err = %v, want ErrCancelled", err)
	}
	b, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 64, 48, 5)})
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	close(gate)
	if _, err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Cancel() // idempotent on a finished job
	if st := a.Status(); st.State != StateFailed {
		t.Fatalf("status = %+v", st)
	}
}

// A cancelled Request.Ctx propagates into the in-flight execution: the
// executor unwinds mid-plan and the job fails with ErrCancelled, while
// the pool stays fully serviceable.
func TestRequestCtxCancelsInFlight(t *testing.T) {
	p := NewPool(WithDevices(gpu.TeslaC870()), WithStreams(1))
	defer p.Close()

	j, err := p.Submit(context.Background(), Request{
		Graph: edgeGraph(t, 64, 48, 5),
		Ctx:   countdown(5), // cancels after 5 executor consultations
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if st := j.Status(); st.State != StateFailed {
		t.Fatalf("status = %+v", st)
	}

	// The device is pristine: the next job completes cleanly.
	j2, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 64, 48, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatalf("job after cancellation: %v", err)
	}
	if h := p.Stats().Devices[0].Health; h != "healthy" {
		t.Fatalf("health = %s after a caller cancellation, want healthy", h)
	}
}

// One shared accounting execution serves every coalesced job: cancelling
// one member must not kill the batch for the others.
func TestCoalescedBatchSurvivesSingleCancel(t *testing.T) {
	gate := make(chan struct{})
	o := obs.New()
	p := NewPool(WithDevices(gpu.TeslaC870()), WithStreams(1), WithObserver(o),
		WithMaxBatch(4), withGate(gate))
	defer p.Close()

	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 64, 48, 5)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if o.M().Counter("serve.coalesced").Value() != 2 {
		t.Fatalf("coalesced = %d, want 2", o.M().Counter("serve.coalesced").Value())
	}
	jobs[1].Cancel()
	close(gate)

	if _, err := jobs[1].Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled member err = %v", err)
	}
	for _, i := range []int{0, 2} {
		rep, err := jobs[i].Wait(context.Background())
		if err != nil {
			t.Fatalf("surviving member %d: %v", i, err)
		}
		if rep == nil || rep.Stats.KernelLaunches == 0 {
			t.Fatalf("surviving member %d has empty report", i)
		}
	}
}

// Health state and migration counters surface deterministically in
// /v1/stats JSON and the metrics registry: one job placed on a
// permanently dead device migrates to the survivor, and every counter
// and gauge must hold exactly these values.
func TestHealthAndMigrationMetricsGolden(t *testing.T) {
	const sick = "Tesla C870"
	inj := gpu.NewInjector(1).SetRate(gpu.FaultDeviceLost, 1.0, gpu.Persistent)
	o := obs.New()
	p := NewPool(
		WithDevices(gpu.TeslaC870(), gpu.GeForce8800GTX()),
		WithDeviceFaults(sick, inj),
		WithHealthPolicy(HealthPolicy{ProbeInterval: time.Hour}),
		WithObserver(o),
	)
	defer p.Close()

	j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 48, 40, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.Device != "GeForce 8800 GTX" || st.Migrated != 1 {
		t.Fatalf("status = %+v, want migrated once to the 8800", st)
	}

	st := p.Stats()
	byName := map[string]DeviceStats{}
	for _, d := range st.Devices {
		byName[d.Name] = d
	}
	if d := byName[sick]; d.Health != "quarantined" || d.MigratedOut != 1 || d.Quarantines != 1 {
		t.Fatalf("sick stats = %+v", d)
	}
	if d := byName["GeForce 8800 GTX"]; d.Health != "healthy" || d.MigratedIn != 1 || d.Completed != 1 {
		t.Fatalf("survivor stats = %+v", d)
	}
	if st.MigratedJobs != 1 || st.HealthyDevices != 1 {
		t.Fatalf("pool stats = %+v", st)
	}

	m := o.M()
	for _, c := range []struct {
		name   string
		labels []string
		want   int64
	}{
		{"serve.completed", []string{"device", "GeForce 8800 GTX"}, 1},
		{"serve.completed", []string{"device", sick}, 0},
		{"serve.device.fault", []string{"device", sick}, 1},
		{"serve.health.transition", []string{"device", sick, "from", "healthy", "to", "quarantined"}, 1},
		{"serve.migrate.batches", []string{"from", sick, "to", "GeForce 8800 GTX"}, 1},
		{"serve.migrate.jobs", nil, 1},
	} {
		if got := m.Counter(c.name, c.labels...).Value(); got != c.want {
			t.Errorf("counter %s%v = %d, want %d", c.name, c.labels, got, c.want)
		}
	}
	for device, want := range map[string]float64{"GeForce 8800 GTX": 0, sick: 2} {
		if got := m.Gauge("serve.health.state", "device", device).Value(); got != want {
			t.Errorf("gauge serve.health.state{device=%s} = %v, want %v", device, got, want)
		}
	}
}
