package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/templates"
	"repro/internal/workload"
)

// Partition returns the per-part report of a job executed as a
// cross-device gang (nil for single-device jobs or until StateDone).
func (j *Job) Partition() *exec.PartitionReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.prep
}

// Placement returns where the job's memory is (or was) placed: one
// device for an ordinary job, the member set of a gang. Zero value
// until admission places the job.
func (j *Job) Placement() Placement {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.placement
}

// gangPool is the two-member fleet the partition tests use: small enough
// that the test CNN's working set (~209 MB) dwarfs either card, so
// admission prefers a gang even though each card could technically page
// the plan through the bus alone.
func gangPool() []gpu.Spec {
	return []gpu.Spec{
		gpu.Custom("mini-A", 3<<20),
		gpu.Custom("mini-B", 2<<20),
	}
}

// A template whose working set exceeds every device must be admitted as
// a gang: compiled partitioned, placed on both members, executed through
// the leader's stream, and reported with the joined makespan.
func TestGangPlacementEndToEnd(t *testing.T) {
	p := NewPool(WithDevices(gangPool()...), WithGangPlacement())
	defer p.Close()

	g, _, err := templates.CNN(templates.SmallCNN(512, 384))
	if err != nil {
		t.Fatal(err)
	}
	j, err := p.Submit(context.Background(), Request{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Stats.TotalTime() <= 0 {
		t.Fatalf("combined report = %+v", rep)
	}

	st := j.Status()
	if st.State != StateDone || st.GangParts != 2 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Placement.Devices) != 2 ||
		st.Placement.Devices[0] != "mini-A" || st.Placement.Devices[1] != "mini-B" {
		t.Fatalf("placement = %+v", st.Placement)
	}
	if len(st.Placement.Bytes) != 2 || st.Placement.Bytes[0] <= 0 || st.Placement.Bytes[1] <= 0 ||
		st.Placement.String() != "mini-A+mini-B" {
		t.Fatalf("placement = %+v", st.Placement)
	}
	if st.ModeledSeconds <= 0 {
		t.Fatalf("modeled seconds = %g", st.ModeledSeconds)
	}

	pr := j.Partition()
	if pr == nil || len(pr.Parts) != 2 || pr.Makespan <= 0 {
		t.Fatalf("partition report = %+v", pr)
	}
	// The joined makespan of concurrent parts must undercut the summed
	// device-seconds the combined report charges.
	if pr.Makespan >= rep.Stats.TotalTime() {
		t.Fatalf("makespan %g not < combined device-seconds %g", pr.Makespan, rep.Stats.TotalTime())
	}

	ps := p.Stats()
	if ps.Gangs.Placed != 1 || ps.Gangs.Completed != 1 || ps.Gangs.CutFloats <= 0 {
		t.Fatalf("gang stats = %+v", ps.Gangs)
	}
	var leader, member *DeviceStats
	for i := range ps.Devices {
		switch ps.Devices[i].Name {
		case "mini-A":
			leader = &ps.Devices[i]
		case "mini-B":
			member = &ps.Devices[i]
		}
	}
	if leader == nil || member == nil {
		t.Fatalf("devices = %+v", ps.Devices)
	}
	// The leader's stream carried the joined makespan; the other member
	// was busy without occupying one of its own streams.
	if ps.ModeledMakespanSec <= 0 {
		t.Fatalf("pool makespan = %g", ps.ModeledMakespanSec)
	}
	if member.GangBusySec <= 0 || member.ModeledBusySec < member.GangBusySec {
		t.Fatalf("member stats = %+v", member)
	}
	// Reservations fully returned after the run.
	if leader.CommittedBytes != 0 || member.CommittedBytes != 0 {
		t.Fatalf("committed after drain: leader=%d member=%d", leader.CommittedBytes, member.CommittedBytes)
	}
}

// A materialized gang job must produce the same outputs as the host
// reference executor — the partition moves data across the cut, it must
// not change it.
func TestGangMaterializedMatchesReference(t *testing.T) {
	// Quarter-size input keeps the materialized run fast under -race;
	// the working set (~14 MB) still dwarfs the 3 MB / 2 MB members.
	g, bufs, err := templates.CNN(templates.SmallCNN(128, 96))
	if err != nil {
		t.Fatal(err)
	}
	in := workload.CNNInputs(bufs, 7)
	want, err := exec.RunReference(g, in)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPool(WithDevices(gangPool()...), WithGangPlacement())
	defer p.Close()
	j, err := p.Submit(context.Background(), Request{Graph: g, Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j.Status().GangParts != 2 {
		t.Fatalf("expected gang execution, status = %+v", j.Status())
	}
	if len(rep.Outputs) != len(want) {
		t.Fatalf("outputs: got %d, want %d", len(rep.Outputs), len(want))
	}
	for id, w := range want {
		if !rep.Outputs[id].AlmostEqual(w, 1e-4) {
			t.Fatalf("output %d differs from reference", id)
		}
	}
}

// admit must never sleep holding a partial reservation: while a competing
// hold blocks the last member, every other member's ledger must show
// nothing charged for the batch. Once the competitor releases, the batch
// admits atomically. A single-device placement is the k = 1 row: nothing
// to roll back, same block-then-admit behaviour.
func TestAdmitRollsBackPartialReservations(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			p := NewPool(WithDevices(gpu.Custom("ga", 1<<20), gpu.Custom("gb", 1<<20)))
			defer p.Close()
			members := p.devices[:k]
			last := members[k-1].ledger

			shares := make([]int64, k)
			for i := range shares {
				shares[i] = 400 << 10
			}
			b := &batch{leader: members[0], members: members, art: &artifact{shares: shares}}
			// A competing job holds most of the last member: the batch
			// reserves the earlier members first, then blocks on the last
			// and must roll the others back before waiting.
			competitor := reserve([]*ledger{last}, []int64{800 << 10})

			admitted := make(chan struct{})
			go func() {
				p.admit(b)
				close(admitted)
			}()

			// While blocked, the earlier members must hold nothing.
			deadline := time.Now().Add(200 * time.Millisecond)
			for time.Now().Before(deadline) {
				select {
				case <-admitted:
					t.Fatal("batch admitted past a competing reservation")
				default:
				}
				for _, m := range members[:k-1] {
					if held := m.ledger.load(); held != 0 {
						t.Fatalf("partial reservation held while blocked: %d bytes on %s", held, m.spec.Name)
					}
				}
				time.Sleep(5 * time.Millisecond)
			}

			// The competitor finishes; the batch must admit all members atomically.
			last.release(competitor[0])
			select {
			case <-admitted:
			case <-time.After(5 * time.Second):
				t.Fatal("batch never admitted after the competing hold released")
			}
			var reserved int64
			for i, m := range members {
				if got := m.ledger.load(); got != 400<<10 {
					t.Fatalf("after admit: %s committed = %d", m.spec.Name, got)
				}
				reserved += b.holds[i].bytes
			}
			if reserved != int64(k)*(400<<10) {
				t.Fatalf("after admit: holds = %d", reserved)
			}
			p.release(b)
		})
	}
}

// Two batches spanning the same members in opposite orders — the classic
// lock-ordering deadlock shape — must both make progress: the
// rollback-before-wait protocol means neither can sleep holding a piece
// the other needs. Run under -race this also exercises the ledger's
// locking. The k = 1 row is two single-device batches contending for one
// ledger.
func TestCompetingAdmitsDoNotDeadlock(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			p := NewPool(WithDevices(gpu.Custom("ga", 1<<20), gpu.Custom("gb", 1<<20)))
			defer p.Close()
			da, db := p.devices[0], p.devices[1]

			// Each batch needs 600 KB on every member; 1 MB devices fit only
			// one at a time, so every admit contends.
			mk := func(order []*device) *batch {
				shares := make([]int64, k)
				for i := range shares {
					shares[i] = 600 << 10
				}
				return &batch{leader: order[0], members: order, art: &artifact{shares: shares}}
			}
			orders := [][]*device{{da, db}, {db, da}}
			if k == 1 {
				orders = [][]*device{{da}, {da}} // both contend for the same ledger
			}
			done := make(chan struct{}, 2)
			for _, order := range orders {
				order := order
				go func() {
					b := mk(order)
					for i := 0; i < 25; i++ {
						p.admit(b)
						p.release(b)
					}
					done <- struct{}{}
				}()
			}
			for i := 0; i < 2; i++ {
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("competing admits deadlocked")
				}
			}
		})
	}
}

// A terminal device fault on one gang member must abort the gang,
// quarantine that member (not the leader), and re-place the surviving
// jobs — here onto the remaining healthy device, which can host the plan
// alone by paging.
func TestGangMemberFaultQuarantinesAndReplaces(t *testing.T) {
	inj := gpu.NewInjector(1).SetRate(gpu.FaultDeviceLost, 1.0, gpu.Persistent)
	p := NewPool(
		WithDevices(gangPool()...),
		WithGangPlacement(),
		WithDeviceFaults("mini-B", inj),
		WithHealthPolicy(HealthPolicy{ProbeInterval: time.Hour}), // no recovery
	)
	defer p.Close()

	g, _, err := templates.CNN(templates.SmallCNN(512, 384))
	if err != nil {
		t.Fatal(err)
	}
	j, err := p.Submit(context.Background(), Request{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatalf("job lost to a member fault: %v", err)
	}

	st := j.Status()
	if st.State != StateDone || st.Device != "mini-A" || st.Migrated == 0 {
		t.Fatalf("status = %+v", st)
	}
	// Re-placed single-device: the finished execution was not a gang.
	if st.GangParts != 0 || len(st.Placement.Devices) != 1 {
		t.Fatalf("expected single-device re-placement, status = %+v", st)
	}

	ps := p.Stats()
	if ps.Gangs.Aborted == 0 {
		t.Fatalf("gang stats = %+v", ps.Gangs)
	}
	if ps.HealthyDevices != 1 {
		t.Fatalf("healthy devices = %d", ps.HealthyDevices)
	}
	for _, ds := range ps.Devices {
		if ds.Name == "mini-B" && ds.Health != "quarantined" {
			t.Fatalf("mini-B health = %q (fault on its partition part must quarantine it)", ds.Health)
		}
		if ds.Name == "mini-A" && ds.Health == "quarantined" {
			t.Fatal("leader quarantined for a member's fault")
		}
	}
}

// Deadline expiry of a still-queued gang must free the queue slot and
// return every member's queued-bytes share — not just the leader's.
func TestGangDeadlineReleasesAllMemberReservations(t *testing.T) {
	gate := make(chan struct{})
	p := NewPool(WithDevices(gangPool()...), WithGangPlacement(), withGate(gate))
	defer p.Close()

	g, _, err := templates.CNN(templates.SmallCNN(512, 384))
	if err != nil {
		t.Fatal(err)
	}
	// The deadline counts from submission, admission compile included:
	// compile the gang once up front so a slow cold compile cannot spend
	// it before the job is even queued.
	if _, _, err := p.compile(context.Background(), g, p.devices); err != nil {
		t.Fatal(err)
	}
	j, err := p.Submit(context.Background(), Request{Graph: g, Deadline: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range p.devices {
		if q := d.queuedBytes.Load(); q <= 0 {
			t.Fatalf("member %d queuedBytes = %d while gang queued", i, q)
		}
	}

	if _, err := j.Wait(context.Background()); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	// The sweeper freed the slot eagerly; every member's share returned.
	for i, d := range p.devices {
		if q := d.queuedBytes.Load(); q != 0 {
			t.Fatalf("member %d queuedBytes = %d after expiry, want 0", i, q)
		}
		if d.queue.len() != 0 {
			t.Fatalf("member %d queue depth = %d after expiry", i, d.queue.len())
		}
	}
	close(gate)
}

// A template no placement can host — every single device infeasible AND
// the partition across the gang-capable fleet infeasible (the planner
// capacity override clamps the partition's split target too) — must
// still surface core.ErrInfeasible.
func TestGangInfeasibleOnlyWhenNoPlacement(t *testing.T) {
	p := NewPool(
		WithDevices(gpu.Custom("tiny-a", 4096), gpu.Custom("tiny-b", 8192)),
		WithServiceOptions(core.WithCapacity(3)),
	)
	defer p.Close()

	g, _, err := templates.CNN(templates.SmallCNN(512, 384))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(context.Background(), Request{Graph: g}); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want core.ErrInfeasible", err)
	}
	if got := p.Stats().Gangs.Placed; got != 0 {
		t.Fatalf("gangs placed = %d on an infeasible pool", got)
	}
}
