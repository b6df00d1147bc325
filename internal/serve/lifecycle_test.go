package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/templates"
)

// lateCancel is a request context whose caller is already gone but whose
// first n Err consultations — the pool's checks at dequeue and before the
// execution group runs — still report a live caller, so the cancellation
// lands inside the execution. Its Done channel is closed from the start,
// which is how a partitioned execution (whose parts watch Done, not Err)
// sees it through the batch context.
type lateCancel struct {
	*countdownCtx
	done chan struct{}
}

func (c lateCancel) Done() <-chan struct{} { return c.done }

func lateCancelCtx(n int) context.Context {
	done := make(chan struct{})
	close(done)
	return lateCancel{countdownCtx: countdown(n), done: done}
}

// One lifecycle, every arity: the same scenarios run for a k = 1 and a
// k = 2 placement of the same template on the same fleet (the test CNN
// pages on either mini device alone; WithGangPlacement makes it a gang).
// Each scenario runs its jobs back to back and reads the pool the moment
// Wait returns — no polling, no settling delay: a job's terminal
// transition is the last thing that happens to it, so by then every
// member's ledger is back at its pinned-set size, the queued-bytes signal
// and queue depth are zero, and the counters, gang tally, SLO samples and
// flight ring already count the job — the same story for both arities.
func TestPlacementLifecycleAcrossArities(t *testing.T) {
	type want struct {
		err                         error // job error (nil = done)
		fault                       bool  // the job fails with the injected transient fault instead
		completed, failed, migrated int64 // pool-wide sums per job
		quarantined                 string
		gangsPlaced, gangsDone      int64 // GangStats per job when k = 2 (all zero for k = 1)
		gangsFailed, abort          int64
		sloQueue, sloDone, aborted  int64 // SLO queue-wait and completion samples, flight abort events per job
	}
	scenarios := []struct {
		name  string
		opts  func(gate chan struct{}) []PoolOption
		req   func() Request
		act   func(j *Job)
		fresh bool // the job leaves a device out of shape, so every job gets a new pool
		want  want
	}{
		{name: "complete",
			want: want{completed: 1, gangsPlaced: 1, gangsDone: 1, sloQueue: 1, sloDone: 1}},
		{name: "deadline-expires-queued",
			opts: func(gate chan struct{}) []PoolOption { return []PoolOption{withGate(gate)} },
			req:  func() Request { return Request{Deadline: 5 * time.Millisecond} },
			want: want{err: ErrDeadlineExceeded, failed: 1, gangsPlaced: 1, aborted: 1}},
		{name: "cancelled-queued",
			opts: func(gate chan struct{}) []PoolOption { return []PoolOption{withGate(gate)} },
			act:  (*Job).Cancel,
			want: want{err: ErrCancelled, failed: 1, gangsPlaced: 1, aborted: 1}},
		{name: "cancelled-in-flight",
			req:  func() Request { return Request{Ctx: lateCancelCtx(2)} },
			want: want{err: ErrCancelled, failed: 1, gangsPlaced: 1, sloQueue: 1}},
		{name: "member-fault-replaces",
			// mini-B is the k = 1 job's device (first in its fleet) and the
			// gang's second member; mini-A hosts the re-placed job alone.
			opts: func(chan struct{}) []PoolOption {
				return []PoolOption{
					WithDeviceFaults("mini-B", gpu.NewInjector(1).SetRate(gpu.FaultDeviceLost, 1.0, gpu.Persistent)),
					WithHealthPolicy(HealthPolicy{ProbeInterval: time.Hour}), // no recovery
				}
			},
			fresh: true,
			want: want{completed: 1, migrated: 1, quarantined: "mini-B", gangsPlaced: 1, abort: 1,
				sloQueue: 2, sloDone: 1}},
		{name: "exec-fails",
			// Every launch on mini-B fails transiently: the resilient driver
			// runs out of retries (k = 1, and mini-B degrades); a gang has no
			// resilient driver and fails on the first.
			opts: func(chan struct{}) []PoolOption {
				return []PoolOption{WithDeviceFaults("mini-B", gpu.NewInjector(1).SetRate(gpu.FaultLaunch, 1.0, gpu.Transient))}
			},
			fresh: true,
			want:  want{fault: true, failed: 1, gangsPlaced: 1, gangsFailed: 1, sloQueue: 1}},
	}
	g, _, err := templates.CNN(lifecycleCNN)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("k=%d/%s", k, sc.name), func(t *testing.T) {
				if k == 2 && sc.name == "cancelled-in-flight" {
					// A partitioned execution observes its caller only through
					// the batch context's watcher goroutine, so no request
					// context can place the cancellation inside the run.
					t.Skip("cancellation cannot be timed into a partitioned run")
				}
				var (
					p    *Pool
					gate chan struct{}
					n    int64 // jobs run on p
				)
				fresh := func() {
					if p != nil {
						close(gate)
						p.Close()
					}
					gate, n = make(chan struct{}), 0
					fleet := gangPool()
					opts := []PoolOption{WithResidency(), WithObserver(obs.New())}
					if k == 2 {
						opts = append(opts, WithGangPlacement())
					} else {
						fleet[0], fleet[1] = fleet[1], fleet[0] // mini-B first
					}
					opts = append(opts, WithDevices(fleet...))
					if sc.opts != nil {
						opts = append(opts, sc.opts(gate)...)
					}
					p = NewPool(opts...)
				}
				defer func() {
					close(gate)
					p.Close()
				}()

				for rep := 0; rep < lifecycleReps; rep++ {
					if p == nil || sc.fresh {
						fresh()
					}
					var req Request
					if sc.req != nil {
						req = sc.req()
					}
					req.Graph = g
					j, err := p.Submit(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					if got := len(j.Placement().Devices); got != k && sc.want.migrated == 0 {
						t.Fatalf("placed on %d devices, want %d: %v", got, k, j.Placement())
					}
					if sc.act != nil {
						sc.act(j)
					}
					if _, err := j.Wait(context.Background()); sc.want.fault != gpu.IsTransient(err) ||
						!sc.want.fault && !errors.Is(err, sc.want.err) {
						t.Fatalf("job %d error = %v, want %v (injected fault: %v)", rep, err, sc.want.err, sc.want.fault)
					}
					n++
					st := p.Stats()
					if sc.want.migrated > 0 && (j.Status().Migrated == 0 || j.Status().Device != "mini-A") {
						t.Fatalf("status after re-placement = %+v", j.Status())
					}
					checkSettled(t, rep, p, st, sc.want.quarantined)

					var completed, failed int64
					for _, ds := range st.Devices {
						completed += ds.Completed
						failed += ds.Failed
					}
					w := sc.want
					if completed != n*w.completed || failed != n*w.failed || st.MigratedJobs != n*w.migrated {
						t.Fatalf("job %d: completed/failed/migrated = %d/%d/%d, want %d/%d/%d", rep,
							completed, failed, st.MigratedJobs, n*w.completed, n*w.failed, n*w.migrated)
					}
					wantGangs := GangStats{}
					if k == 2 {
						wantGangs = GangStats{Placed: n * w.gangsPlaced, Completed: n * w.gangsDone,
							Failed: n * w.gangsFailed, Aborted: n * w.abort}
					}
					st.Gangs.CutFloats = 0 // volume, not a lifecycle counter
					if st.Gangs != wantGangs {
						t.Fatalf("job %d: gang stats = %+v, want %+v", rep, st.Gangs, wantGangs)
					}
					var queue, done, exec int64
					for _, s := range st.SLOs {
						queue, done, exec = queue+s.QueueWait.Count, done+s.EndToEnd.Count, exec+s.Exec.Count
					}
					if queue != n*w.sloQueue || done != n*w.sloDone || exec != done {
						t.Fatalf("job %d: SLO queue/exec/end-to-end samples = %d/%d/%d, want %d/%d/%d", rep,
							queue, exec, done, n*w.sloQueue, n*w.sloDone, n*w.sloDone)
					}
					aborted := int64(0)
					for _, ev := range p.FlightSnapshot().Events {
						if ev.Kind == flightAbort {
							aborted++
						}
					}
					if aborted != n*w.aborted {
						t.Fatalf("job %d: flight abort events = %d, want %d", rep, aborted, n*w.aborted)
					}
				}
			})
		}
	}
}

// lifecycleCNN is a two-layer network cheap enough to run fifty times per
// scenario whose working set (~7 MB) still dwarfs either mini device.
var lifecycleCNN = templates.CNNConfig{
	Name: "lifecycle CNN", ImageH: 512, ImageW: 384, InPlanes: 1,
	Layers: []templates.CNNLayer{
		{Kind: templates.LayerConv, OutPlanes: 4, KernelSize: 5},
		{Kind: templates.LayerTanh},
		{Kind: templates.LayerSubsample, Factor: 2},
		{Kind: templates.LayerConv, OutPlanes: 2, KernelSize: 3},
		{Kind: templates.LayerTanh},
	},
}

const lifecycleReps = 50

// checkSettled asserts the pool's resting state the moment a job's Wait
// returns: every ledger back at its pinned-set size, nothing queued, and
// only the expected device out of rotation.
func checkSettled(t *testing.T, rep int, p *Pool, st Stats, quarantined string) {
	t.Helper()
	for i, ds := range st.Devices {
		if ds.CommittedBytes != ds.PinnedBytes {
			t.Fatalf("job %d: %s committed %d != pinned %d after Wait", rep, ds.Name, ds.CommittedBytes, ds.PinnedBytes)
		}
		if q := p.devices[i].queuedBytes.Load(); q != 0 || ds.QueueDepth != 0 {
			t.Fatalf("job %d: %s queuedBytes %d, queue depth %d after Wait", rep, ds.Name, q, ds.QueueDepth)
		}
		if (ds.Health == "quarantined") != (ds.Name == quarantined) {
			t.Fatalf("job %d: %s health %q, want quarantined only on %q", rep, ds.Name, ds.Health, quarantined)
		}
	}
}

// alive is where a dequeued job dies: it drops jobs already aborted out of
// the queue, fails cancelled ones and — given the dequeue instant —
// expired ones, settling them on the batch without waking anyone; release
// wakes them, after the batch's holds are back. Between execution groups
// and before a migration (a zero instant) nothing expires.
func TestAliveSettlesOnTheBatch(t *testing.T) {
	p := NewPool(WithDevices(gpu.TeslaC870()))
	defer p.Close()
	d := p.devices[0]
	now := time.Now()
	job := func(id string, deadline time.Duration) *Job {
		return &Job{ID: id, reqCtx: context.Background(), done: make(chan struct{}), cancelCh: make(chan struct{}),
			state: StateQueued, submitted: now.Add(-time.Second), deadline: now.Add(deadline)}
	}
	gone, cancelled, expired, live := job("gone", time.Hour), job("cancelled", time.Hour), job("expired", -time.Millisecond), job("live", time.Hour)
	gone.conclude(nil, nil, ErrCancelled)
	cancelled.Cancel()
	b := &batch{leader: d, members: []*device{d}}

	if got := p.alive(b, d, []*Job{gone, cancelled, expired}, time.Time{}); len(got) != 1 || got[0] != expired {
		t.Fatalf("alive without a dequeue instant = %v, want only the expired job", got)
	}
	got := p.alive(b, d, []*Job{gone, expired, live}, now)
	if len(got) != 1 || got[0] != live {
		t.Fatalf("alive at dequeue = %v, want only the live job", got)
	}
	if len(b.concluded) != 2 || !errors.Is(cancelled.Err(), ErrCancelled) || !errors.Is(expired.Err(), ErrDeadlineExceeded) {
		t.Fatalf("settled on the batch: %v; errors %v, %v", b.concluded, cancelled.Err(), expired.Err())
	}
	if got := p.Stats().Devices[0].Failed; got != 2 {
		t.Fatalf("failed = %d, want 2", got)
	}
	for _, j := range b.concluded {
		select {
		case <-j.done:
			t.Fatalf("%s woke before its batch was released", j.ID)
		default:
		}
	}
	p.release(b)
	for _, j := range []*Job{cancelled, expired} {
		if _, err := j.Wait(context.Background()); err == nil {
			t.Fatalf("%s: Wait after release = nil error", j.ID)
		}
	}
}
