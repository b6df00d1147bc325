package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/obs"
)

// phasesByName indexes a trace's phases (several attempts may share the
// name; the last wins, which is what the assertions want).
func phasesByName(tr *JobTrace) map[string][]PhaseSpan {
	m := map[string][]PhaseSpan{}
	for _, ph := range tr.Phases {
		m[ph.Phase] = append(m[ph.Phase], ph)
	}
	return m
}

func eventNames(tr *JobTrace) map[string]int {
	m := map[string]int{}
	for _, ev := range tr.Events {
		m[ev.Name]++
	}
	return m
}

// A completed job's trace carries every lifecycle phase, and the
// synthesized queue/exec phases agree with the job's reported
// QueueWaitMS/ExecMS exactly — the invariant that makes a trace
// trustworthy as an explanation of the reported latency.
func TestJobTraceCompletedConsistency(t *testing.T) {
	o := obs.New()
	p := NewPool(WithDevices(gpu.TeslaC870()), WithObserver(o))
	defer p.Close()

	j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 64, 48, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	tr := j.Trace()
	if tr == nil {
		t.Fatal("no trace on an observed pool's job")
	}
	if tr.ID != j.ID || tr.State != StateDone || tr.Device != "Tesla C870" {
		t.Fatalf("trace header = %+v", tr)
	}
	st := j.Status()
	if tr.QueueWaitMS != st.QueueWaitMS {
		t.Fatalf("trace queue wait %v != status %v", tr.QueueWaitMS, st.QueueWaitMS)
	}
	if tr.ExecMS != st.ExecMS {
		t.Fatalf("trace exec %v != status %v", tr.ExecMS, st.ExecMS)
	}

	phases := phasesByName(tr)
	for _, want := range []string{PhaseAdmission, PhaseCompile, PhaseQueue, PhaseExec, PhaseAttempt} {
		if len(phases[want]) == 0 {
			t.Fatalf("trace missing %q phase; phases = %+v", want, tr.Phases)
		}
	}
	if q := phases[PhaseQueue][0]; q.DurMS != st.QueueWaitMS || q.StartMS != 0 {
		t.Fatalf("queue phase %+v vs status wait %v", q, st.QueueWaitMS)
	}
	if e := phases[PhaseExec][0]; e.DurMS != st.ExecMS {
		t.Fatalf("exec phase %+v vs status exec %v", e, st.ExecMS)
	}
	// The attempt executed on the simulated device: its H2D/compute/D2H
	// timeline must have been handed off from the exec observer fork.
	if len(tr.DeviceSpans) == 0 {
		t.Fatal("no device spans handed off from the execution")
	}
	tracks := map[string]bool{}
	for _, ds := range tr.DeviceSpans {
		if ds.EndSec < ds.StartSec {
			t.Fatalf("device span ends before it starts: %+v", ds)
		}
		tracks[ds.Track] = true
	}
	if !tracks["dma"] || !tracks["compute"] {
		t.Fatalf("device span tracks = %v, want dma and compute", tracks)
	}
	evs := eventNames(tr)
	if evs["enqueue"] != 1 || evs["dequeue"] != 1 || evs["done"] != 1 {
		t.Fatalf("events = %v", evs)
	}
}

// Coalesced members get full traces too: the join event, and the shared
// execution's device timeline copied to every member.
func TestJobTraceCoalescedMembers(t *testing.T) {
	o := obs.New()
	gate := make(chan struct{})
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
	close(gate)
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	lead, member := jobs[0].Trace(), jobs[2].Trace()
	if eventNames(member)["coalesce-join"] != 1 {
		t.Fatalf("member events = %v, want a coalesce-join", member.Events)
	}
	if eventNames(lead)["coalesce-join"] != 0 {
		t.Fatalf("lead events = %v, must not join itself", lead.Events)
	}
	if len(member.DeviceSpans) == 0 || len(member.DeviceSpans) != len(lead.DeviceSpans) {
		t.Fatalf("member device spans = %d, lead = %d; the batch shares one execution",
			len(member.DeviceSpans), len(lead.DeviceSpans))
	}
	for _, tr := range []*JobTrace{lead, member} {
		st := p.Job(tr.ID).Status()
		if tr.QueueWaitMS != st.QueueWaitMS || tr.ExecMS != st.ExecMS {
			t.Fatalf("%s trace timings (%v, %v) != status (%v, %v)",
				tr.ID, tr.QueueWaitMS, tr.ExecMS, st.QueueWaitMS, st.ExecMS)
		}
	}
}

// A migrated job's trace shows the whole journey: the device-fault
// attempt on the sick device, the migrate hop, and the clean attempt on
// the survivor — and its phase timings still match the reported ones.
func TestJobTraceMigration(t *testing.T) {
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

	tr := j.Trace()
	if tr.State != StateDone || tr.Device != "GeForce 8800 GTX" {
		t.Fatalf("trace header = %+v", tr)
	}
	attempts := phasesByName(tr)[PhaseAttempt]
	if len(attempts) != 2 {
		t.Fatalf("attempts = %d, want 2 (fault + success): %+v", len(attempts), attempts)
	}
	if attempts[0].Args["device"] != sick || attempts[0].Args["outcome"] != "device-fault" {
		t.Fatalf("first attempt = %+v", attempts[0])
	}
	if attempts[1].Args["device"] != "GeForce 8800 GTX" || attempts[1].Args["outcome"] != "ok" {
		t.Fatalf("second attempt = %+v", attempts[1])
	}
	if eventNames(tr)["migrate"] != 1 {
		t.Fatalf("events = %v, want one migrate hop", tr.Events)
	}
	st := j.Status()
	if tr.QueueWaitMS != st.QueueWaitMS || tr.ExecMS != st.ExecMS {
		t.Fatalf("migrated trace timings (%v, %v) != status (%v, %v)",
			tr.QueueWaitMS, tr.ExecMS, st.QueueWaitMS, st.ExecMS)
	}
}

// Jobs that die in the queue (cancelled or expired) still yield a trace:
// queue phase only, duration matching the reported wait, and a terminal
// failed event.
func TestJobTraceCancelledAndExpired(t *testing.T) {
	o := obs.New()
	gate := make(chan struct{})
	p := NewPool(WithDevices(gpu.TeslaC870()), WithStreams(1), WithObserver(o), withGate(gate))
	defer p.Close()
	defer close(gate)

	cancelled, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 64, 48, 5)})
	if err != nil {
		t.Fatal(err)
	}
	cancelled.Cancel()
	if _, err := cancelled.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled err = %v", err)
	}

	expired, err := p.Submit(context.Background(),
		Request{Graph: edgeGraph(t, 32, 24, 3), Deadline: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := expired.Wait(context.Background()); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired err = %v", err)
	}

	for name, j := range map[string]*Job{"cancelled": cancelled, "expired": expired} {
		tr := j.Trace()
		if tr == nil || tr.State != StateFailed {
			t.Fatalf("%s trace = %+v", name, tr)
		}
		phases := phasesByName(tr)
		if len(phases[PhaseExec]) != 0 || len(phases[PhaseAttempt]) != 0 {
			t.Fatalf("%s has execution phases despite dying queued: %+v", name, tr.Phases)
		}
		st := j.Status()
		if tr.QueueWaitMS != st.QueueWaitMS || tr.ExecMS != 0 {
			t.Fatalf("%s trace timings (%v, %v) != status wait %v",
				name, tr.QueueWaitMS, tr.ExecMS, st.QueueWaitMS)
		}
		evs := eventNames(tr)
		if evs["failed"] != 1 || evs["done"] != 0 {
			t.Fatalf("%s events = %v", name, evs)
		}
	}

	// Both deaths were recorded on the flight ring and the aborted metric.
	kinds := map[string]int{}
	for _, ev := range p.FlightSnapshot().Events {
		kinds[ev.Kind]++
	}
	if kinds[flightAbort] != 2 {
		t.Fatalf("flight abort events = %v, want 2", kinds)
	}
	if n := o.M().Counter(metricAborted, "reason", "cancelled").Value(); n != 1 {
		t.Fatalf("aborted{cancelled} = %d", n)
	}
	if n := o.M().Counter(metricAborted, "reason", "deadline").Value(); n != 1 {
		t.Fatalf("aborted{deadline} = %d", n)
	}
}

// Without an observer nothing is recorded anywhere: no trace, no SLOs,
// no flight ring — and stats keep their exact disabled-mode JSON shape.
func TestObservabilityDisabledIsInert(t *testing.T) {
	p := NewPool(WithDevices(gpu.TeslaC870()))
	defer p.Close()
	j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 64, 48, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tr := j.Trace(); tr != nil {
		t.Fatalf("disabled pool produced a trace: %+v", tr)
	}
	if snap := p.FlightSnapshot(); snap.Capacity != 0 || snap.Events != nil {
		t.Fatalf("disabled pool has a flight ring: %+v", snap)
	}
	raw, err := json.Marshal(p.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("slos")) {
		t.Fatalf("disabled stats JSON leaks SLO section: %s", raw)
	}
	if err := p.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTrace on a disabled pool must error")
	}
}

// SLO histograms surface per-fingerprint quantiles in Stats, and the
// slowest bucket's exemplar is a real, trace-retrievable job.
func TestStatsSLOsWithExemplars(t *testing.T) {
	o := obs.New()
	p := NewPool(WithDevices(gpu.TeslaC870()), WithObserver(o))
	defer p.Close()

	fp := ""
	for i := 0; i < 4; i++ {
		j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 64, 48, 5)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		fp = j.Fingerprint
	}

	st := p.Stats()
	if len(st.SLOs) != 1 || st.SLOs[0].Fingerprint != fp {
		t.Fatalf("SLOs = %+v", st.SLOs)
	}
	slo := st.SLOs[0]
	for name, h := range map[string]obs.SLOStat{
		"queue_wait": slo.QueueWait, "exec": slo.Exec, "end_to_end": slo.EndToEnd,
	} {
		if h.Count != 4 {
			t.Fatalf("%s count = %d, want 4", name, h.Count)
		}
		if h.P50 < 0 || h.P95 < h.P50 || h.P99 < h.P95 {
			t.Fatalf("%s quantiles not monotone: %+v", name, h)
		}
		if h.Exemplar == "" {
			t.Fatalf("%s has no exemplar", name)
		}
		ex := p.Job(h.Exemplar)
		if ex == nil || ex.Trace() == nil {
			t.Fatalf("%s exemplar %q is not a retrievable job", name, h.Exemplar)
		}
	}
}

// The flight recorder captures the incident chain of a quarantine and
// auto-dumps it to the configured path.
func TestFlightRecorderQuarantineDump(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.json")
	const sick = "Tesla C870"
	inj := gpu.NewInjector(1).SetRate(gpu.FaultDeviceLost, 1.0, gpu.Persistent)
	o := obs.New()
	p := NewPool(
		WithDevices(gpu.TeslaC870(), gpu.GeForce8800GTX()),
		WithDeviceFaults(sick, inj),
		WithHealthPolicy(HealthPolicy{ProbeInterval: time.Hour}),
		WithObserver(o),
		WithFlightDump(dump),
	)
	defer p.Close()

	j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 48, 40, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	for _, ev := range p.FlightSnapshot().Events {
		kinds[ev.Kind]++
	}
	for _, want := range []string{flightFault, flightHealth, flightMigrate} {
		if kinds[want] == 0 {
			t.Fatalf("flight ring missing %q events: %v", want, kinds)
		}
	}

	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("quarantine did not dump the flight ring: %v", err)
	}
	var snap obs.FlightSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("dump is not a snapshot: %v", err)
	}
	// The dump happens at the quarantine transition, so it holds at least
	// the device fault and the health transition that triggered it.
	dumped := map[string]bool{}
	for _, ev := range snap.Events {
		dumped[ev.Kind] = true
	}
	if !dumped[flightFault] || !dumped[flightHealth] {
		t.Fatalf("dumped events = %v", dumped)
	}
}

// Concurrent load with a mid-run device failure: every job still gets a
// consistent trace, and the pool tracer is left with zero open spans —
// the migration hand-off must not orphan any worker/queue lane span.
func TestPoolTraceStressWithMigration(t *testing.T) {
	const sick = "Tesla C870"
	inj := gpu.NewInjector(7).SetRate(gpu.FaultDeviceLost, 1.0, gpu.Persistent)
	o := obs.New()
	p := NewPool(
		WithDevices(gpu.TeslaC870(), gpu.GeForce8800GTX()),
		WithDeviceFaults(sick, inj),
		WithHealthPolicy(HealthPolicy{ProbeInterval: time.Hour}),
		WithStreams(2),
		WithObserver(o),
	)

	var wg sync.WaitGroup
	jobs := make([]*Job, 12)
	for i := range jobs {
		j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 32+4*(i%3), 24, 3)})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			_, _ = j.Wait(context.Background())
		}(j)
	}
	wg.Wait()
	p.Close()

	for _, j := range jobs {
		tr := j.Trace()
		if tr == nil {
			t.Fatalf("job %s lost its trace under load", j.ID)
		}
		st := j.Status()
		if tr.QueueWaitMS != st.QueueWaitMS || tr.ExecMS != st.ExecMS {
			t.Fatalf("job %s trace timings (%v, %v) != status (%v, %v)",
				j.ID, tr.QueueWaitMS, tr.ExecMS, st.QueueWaitMS, st.ExecMS)
		}
		if st.State == StateDone && len(phasesByName(tr)[PhaseAttempt]) == 0 {
			t.Fatalf("job %s completed without an attempt span", j.ID)
		}
	}
	if n := o.T().OpenSpans(); n != 0 {
		t.Fatalf("pool tracer has %d orphaned open spans", n)
	}
}

// The pool-wide Chrome trace validates and has one lane per device
// worker stream plus the queue lane.
func TestPoolChromeTraceLanes(t *testing.T) {
	o := obs.New()
	p := NewPool(WithDevices(gpu.TeslaC870()), WithStreams(2), WithObserver(o))
	for i := 0; i < 3; i++ {
		j, err := p.Submit(context.Background(), Request{Graph: edgeGraph(t, 64, 48, 5)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	var buf bytes.Buffer
	if err := p.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	check, err := obs.ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("pool trace invalid: %v", err)
	}
	// Which of the two streams dequeues each job is up to the scheduler,
	// so any worker lane will do.
	tracks := map[string]bool{}
	for _, tr := range check.Tracks {
		tracks[tr] = true
	}
	if !(tracks["worker:Tesla C870#0"] || tracks["worker:Tesla C870#1"]) || !tracks["queue:Tesla C870"] {
		t.Fatalf("trace lanes = %v, want worker and queue lanes", check.Tracks)
	}
}
