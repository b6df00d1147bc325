package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/templates"
)

// One lifecycle, every arity: the same four scenarios run for a k = 1 and
// a k = 2 placement of the same template on the same fleet (the test CNN
// pages on either mini device alone; WithGangPlacement makes it a gang).
// Whatever happens to the job, every member's ledger must return to its
// pinned-set size and its queued-bytes signal to zero, and the pool
// counters must tell the same story for both arities.
func TestPlacementLifecycleAcrossArities(t *testing.T) {
	type want struct {
		err                           error // job error (nil = done)
		completed, failed, migrated   int64 // pool-wide sums
		quarantined                   string
		gangsPlaced, gangsDone, abort int64 // GangStats when k = 2 (all zero for k = 1)
	}
	scenarios := []struct {
		name string
		opts func(gate chan struct{}) []PoolOption
		req  Request
		act  func(j *Job)
		want want
	}{
		{name: "complete",
			want: want{completed: 1, gangsPlaced: 1, gangsDone: 1}},
		{name: "deadline-expires-queued",
			opts: func(gate chan struct{}) []PoolOption { return []PoolOption{withGate(gate)} },
			req:  Request{Deadline: 30 * time.Millisecond},
			want: want{err: ErrDeadlineExceeded, failed: 1, gangsPlaced: 1}},
		{name: "cancelled-queued",
			opts: func(gate chan struct{}) []PoolOption { return []PoolOption{withGate(gate)} },
			act:  (*Job).Cancel,
			want: want{err: ErrCancelled, failed: 1, gangsPlaced: 1}},
		{name: "member-fault-replaces",
			// mini-B is the k = 1 job's device (first in its fleet) and the
			// gang's second member; mini-A hosts the re-placed job alone.
			opts: func(chan struct{}) []PoolOption {
				return []PoolOption{
					WithDeviceFaults("mini-B", gpu.NewInjector(1).SetRate(gpu.FaultDeviceLost, 1.0, gpu.Persistent)),
					WithHealthPolicy(HealthPolicy{ProbeInterval: time.Hour}), // no recovery
				}
			},
			want: want{completed: 1, migrated: 1, quarantined: "mini-B", gangsPlaced: 1, abort: 1}},
	}
	for _, k := range []int{1, 2} {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("k=%d/%s", k, sc.name), func(t *testing.T) {
				gate := make(chan struct{})
				fleet := gangPool()
				opts := []PoolOption{WithResidency()}
				if k == 2 {
					opts = append(opts, WithGangPlacement())
				} else {
					fleet[0], fleet[1] = fleet[1], fleet[0] // mini-B first
				}
				opts = append(opts, WithDevices(fleet...))
				if sc.opts != nil {
					opts = append(opts, sc.opts(gate)...)
				}
				p := NewPool(opts...)
				defer p.Close()
				defer close(gate)

				g, _, err := templates.CNN(templates.SmallCNN(512, 384))
				if err != nil {
					t.Fatal(err)
				}
				req := sc.req
				req.Graph = g
				j, err := p.Submit(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if got := len(j.Placement().Devices); got != k {
					t.Fatalf("placed on %d devices, want %d: %v", got, k, j.Placement())
				}
				if sc.act != nil {
					sc.act(j)
				}
				if _, err := j.Wait(context.Background()); !errors.Is(err, sc.want.err) {
					t.Fatalf("job error = %v, want %v", err, sc.want.err)
				}
				if sc.want.migrated > 0 && (j.Status().Migrated == 0 || j.Status().Device != "mini-A") {
					t.Fatalf("status after re-placement = %+v", j.Status())
				}

				// The worker releases the ledger after it finishes the job,
				// so give the drain a moment before reading it.
				var st Stats
				for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
					st = p.Stats()
					drained := true
					for _, ds := range st.Devices {
						drained = drained && ds.CommittedBytes == ds.PinnedBytes
					}
					if drained || time.Now().After(deadline) {
						break
					}
				}
				var completed, failed int64
				for i, ds := range st.Devices {
					if ds.CommittedBytes != ds.PinnedBytes {
						t.Errorf("%s: committed %d != pinned %d after the job settled", ds.Name, ds.CommittedBytes, ds.PinnedBytes)
					}
					if q := p.devices[i].queuedBytes.Load(); q != 0 || ds.QueueDepth != 0 {
						t.Errorf("%s: queuedBytes %d, queue depth %d after the job settled", ds.Name, q, ds.QueueDepth)
					}
					if (ds.Health == "quarantined") != (ds.Name == sc.want.quarantined) {
						t.Errorf("%s: health %q, want quarantined only on %q", ds.Name, ds.Health, sc.want.quarantined)
					}
					completed += ds.Completed
					failed += ds.Failed
				}
				if completed != sc.want.completed || failed != sc.want.failed || st.MigratedJobs != sc.want.migrated {
					t.Errorf("completed/failed/migrated = %d/%d/%d, want %d/%d/%d",
						completed, failed, st.MigratedJobs, sc.want.completed, sc.want.failed, sc.want.migrated)
				}
				wantGangs := GangStats{}
				if k == 2 {
					wantGangs = GangStats{Placed: sc.want.gangsPlaced, Completed: sc.want.gangsDone, Aborted: sc.want.abort}
				}
				st.Gangs.CutFloats = 0 // volume, not a lifecycle counter
				if st.Gangs != wantGangs {
					t.Errorf("gang stats = %+v, want %+v", st.Gangs, wantGangs)
				}
			})
		}
	}
}
