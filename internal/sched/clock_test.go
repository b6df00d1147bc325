package sched

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// A serial fold charges each step's duration to its bucket in plan order,
// its events tile the serialized clock, and a launch's bytes are the
// distinct-buffer sum that Node.Buffers gives.
func TestClockStepCharges(t *testing.T) {
	_, plan, _ := prefetchFixture(t)
	spec := gpu.TeslaC870()
	tr := &gpu.Trace{}
	got := Fold(plan, spec, false, tr)

	var want gpu.Stats
	var now float64
	events := 0
	for _, s := range plan.Steps {
		switch s.Kind {
		case StepH2D:
			d := spec.H2DDuration(s.Buf.Size())
			want.TransferTime += d
			want.H2DFloats += s.Buf.Size()
			want.H2DCalls++
			now += d
		case StepD2H:
			d := spec.D2HDuration(s.Buf.Size())
			want.TransferTime += d
			want.D2HFloats += s.Buf.Size()
			want.D2HCalls++
			now += d
		case StepLaunch:
			n := s.Node
			var bytes int64
			for _, b := range n.Buffers() {
				bytes += b.Bytes()
			}
			in := make([]graph.Shape, len(n.In))
			for i, a := range n.In {
				in[i] = a.Shape()
			}
			d := spec.KernelTime(n.Op.FLOPs(in, n.Out.Shape()), n.Out.Region.Size(), bytes)
			want.ComputeTime += d
			want.KernelLaunches++
			now += d
		case StepSync:
			want.SyncTime += spec.SyncOverhead
			want.Syncs++
			now += spec.SyncOverhead
		default:
			continue
		}
		if ev := tr.Events[events]; ev.End != now {
			t.Fatalf("event %d %v ends at %g, serialized clock at %g", events, ev, ev.End, now)
		}
		events++
	}
	if got != want {
		t.Fatalf("fold stats\n got %+v\nwant %+v", got, want)
	}
	// (Stats.TotalTime sums the buckets, not the steps, so it may differ
	// from the serialized clock in the last bit.)
	if events != len(tr.Events) {
		t.Fatalf("%d events for %d timed steps", len(tr.Events), events)
	}
}

// Regression: a free clears the buffer's ready time. A stale entry would
// order a kernel after a re-upload against the previous incarnation.
func TestClockFreeClearsReady(t *testing.T) {
	_, plan, _ := prefetchFixture(t)
	c := Clock{Spec: gpu.TeslaC1060(), Overlap: true}
	frees := 0
	for si, s := range plan.Steps {
		c.Step(s)
		if s.Kind == StepFree {
			frees++
			if r := c.readyAt(s.Buf.ID); r != 0 {
				t.Fatalf("step %d: freed %s still ready at %g", si, s.Buf, r)
			}
		}
	}
	if frees == 0 {
		t.Fatal("plan exercised no frees; regression not covered")
	}
}

// Retry backoff stalls the serialized clock and both engines; a
// compaction charges its buckets and the serialized clock only.
func TestClockStallsAndCompactions(t *testing.T) {
	spec := gpu.TeslaC1060()
	g := graph.New()
	b := g.NewBuffer("b", graph.Shape{Rows: 16, Cols: 16})
	h2d := Step{Kind: StepH2D, Buf: b}
	d := spec.H2DDuration(b.Size())

	c := Clock{Spec: spec, Overlap: true}
	c.Step(h2d)
	c.Stall(0.5)
	c.Compact([]gpu.Move{{Old: 80, New: 0, Len: 40}, {Old: 200, New: 40, Len: 60}})
	ev, _ := c.Step(h2d)
	if ev.Start != d+0.5 || ev.End != d+0.5+d {
		t.Fatalf("H2D after a stall runs [%g, %g], want [%g, %g]", ev.Start, ev.End, d+0.5, d+0.5+d)
	}
	st := c.Stats()
	if st.RecoveryTime != 0.5 || st.Compactions != 1 || st.CompactedFloats != 25 ||
		st.CompactTime != spec.CompactDuration(100) {
		t.Fatalf("stats = %+v", st)
	}
	if want := d + 0.5 + spec.CompactDuration(100) + d; c.Now() != want {
		t.Fatalf("serialized clock %g, want %g", c.Now(), want)
	}
	c.Finish()
	if st := c.Stats(); st.WallTime != ev.End || st.TotalTime() != ev.End || c.Now() != ev.End {
		t.Fatalf("finish: wall %g, total %g, clock %g; want %g", st.WallTime, st.TotalTime(), c.Now(), ev.End)
	}

	// Without overlap every charge is serialized and TotalTime sums them.
	s := Clock{Spec: spec}
	s.Step(h2d)
	s.Stall(0.5)
	s.Finish()
	if st := s.Stats(); st.WallTime != 0 || st.TotalTime() != d+0.5 || s.Now() != d+0.5 {
		t.Fatalf("serial: %+v at %g", st, s.Now())
	}
}
