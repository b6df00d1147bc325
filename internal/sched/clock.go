package sched

import (
	"slices"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// Clock is the modeled device clock: the one place a plan step becomes
// modeled seconds, with the duration formulas of gpu.Spec (paper §4's
// timing model) and §3.3.2's two-engine overlap on top. Step charges one
// step to Stats in the order it is called. The executor steps it once per
// executed step, Fold once per plan step, and the partitioner and the
// residency tail price steps with the same cost, so a modeled number
// means the same thing wherever it is read.
//
// Serially every charge advances one clock. With Overlap on a Spec that
// supports AsyncTransfer, transfers run on a DMA engine and kernels and
// syncs on a compute engine, a step waits for the buffers it reads, and
// Finish sets Stats.WallTime to the later engine. The serialized clock
// advances by every charge either way, so the Stats buckets do not depend
// on Overlap.
//
// A Clock with only Spec (and Overlap) set starts idle at time zero.
type Clock struct {
	Spec    gpu.Spec
	Overlap bool

	stats gpu.Stats
	now   float64 // serialized clock: every charge, stalls included
	// Under overlap: each engine's free time, and per buffer ID the time
	// its device copy becomes available (0 when it has none).
	dma, comp float64
	ready     []float64
	shapes    []graph.Shape // Launch's scratch
}

func (c *Clock) overlapped() bool { return c.Overlap && c.Spec.AsyncTransfer }

// Launch returns what launching n costs, as gpu.Spec.KernelTime takes it:
// the node's FLOPs, its output elements, and the bytes it touches in
// device memory, each distinct buffer once.
func (c *Clock) Launch(n *graph.Node) (flops, elements, bytes int64) {
	c.shapes = c.shapes[:0]
	for _, a := range n.In {
		c.shapes = append(c.shapes, a.Shape())
	}
	return n.Op.FLOPs(c.shapes, n.Out.Shape()), n.Out.Region.Size(), n.Footprint() * 4
}

// cost returns the modeled duration of step s: a transfer's DMA time, a
// kernel's time, the sync overhead, or zero for a free.
func (c *Clock) cost(s Step) float64 {
	switch s.Kind {
	case StepH2D:
		return c.Spec.H2DDuration(s.Buf.Size())
	case StepD2H:
		return c.Spec.D2HDuration(s.Buf.Size())
	case StepLaunch:
		return c.Spec.KernelTime(c.Launch(s.Node))
	case StepSync:
		return c.Spec.SyncOverhead
	}
	return 0
}

// Step charges step s and returns its interval on the engine that runs
// it; ok is false for a free, which takes no time.
func (c *Clock) Step(s Step) (ev gpu.Event, ok bool) {
	d := c.cost(s)
	start := c.now
	c.now += d
	switch s.Kind {
	case StepH2D:
		c.stats.TransferTime += d
		c.stats.H2DFloats += s.Buf.Size()
		c.stats.H2DCalls++
		ev = gpu.Event{Kind: gpu.EventH2D, Label: s.Buf.Name, Engine: "dma"}
	case StepD2H:
		c.stats.TransferTime += d
		c.stats.D2HFloats += s.Buf.Size()
		c.stats.D2HCalls++
		ev = gpu.Event{Kind: gpu.EventD2H, Label: s.Buf.Name, Engine: "dma"}
	case StepLaunch:
		c.stats.ComputeTime += d
		c.stats.KernelLaunches++
		ev = gpu.Event{Kind: gpu.EventKernel, Label: s.Node.Name, Engine: "compute"}
	case StepSync:
		c.stats.SyncTime += d
		c.stats.Syncs++
		ev = gpu.Event{Kind: gpu.EventSync, Engine: "compute"}
	default:
		// A buffer ID reused after this free must not inherit this
		// lifetime's ready time.
		if s.Buf.ID < len(c.ready) {
			c.ready[s.Buf.ID] = 0
		}
		return gpu.Event{}, false
	}
	if !c.overlapped() {
		ev.Start, ev.End = start, c.now
		return ev, true
	}
	switch s.Kind {
	case StepH2D:
		ev.Start = c.dma
		c.dma = ev.Start + d
		c.setReady(s.Buf.ID, c.dma)
		ev.End = c.dma
	case StepD2H:
		ev.Start = max(c.dma, c.readyAt(s.Buf.ID))
		c.dma = ev.Start + d
		ev.End = c.dma
	default:
		// Launches wait for their operands. Asynchronous streams do not
		// join the host at unit boundaries, so a sync is a stream-ordered
		// event on the compute engine only.
		ev.Start = c.comp
		if s.Kind == StepLaunch {
			for _, a := range s.Node.In {
				for _, b := range a.Bufs {
					ev.Start = max(ev.Start, c.readyAt(b.ID))
				}
			}
		}
		c.comp = ev.Start + d
		if s.Kind == StepLaunch {
			for _, b := range s.Node.Out.Bufs {
				c.setReady(b.ID, c.comp)
			}
		}
		ev.End = c.comp
	}
	return ev, true
}

func (c *Clock) readyAt(id int) float64 {
	if id < len(c.ready) {
		return c.ready[id]
	}
	return 0
}

func (c *Clock) setReady(id int, t float64) {
	if id >= len(c.ready) {
		c.ready = append(c.ready, make([]float64, id+1-len(c.ready))...)
	}
	c.ready[id] = t
}

// Stall idles the device for sec seconds of retry backoff, charged to
// Stats.RecoveryTime: the serialized clock and, under overlap, both
// engines move on.
func (c *Clock) Stall(sec float64) {
	c.now += sec
	c.stats.RecoveryTime += sec
	if c.overlapped() {
		c.dma += sec
		c.comp += sec
	}
}

// Compact charges an arena defragmentation that made the given moves to
// the Compact* buckets and the serialized clock.
func (c *Clock) Compact(moves []gpu.Move) {
	var bytes int64
	for _, m := range moves {
		bytes += m.Len
	}
	t := c.Spec.CompactDuration(bytes)
	c.now += t
	c.stats.Compactions++
	c.stats.CompactedFloats += bytes / 4
	c.stats.CompactTime += t
}

// Rewind sets the engine free times and ready times to to's, keeping the
// serialized clock and Stats: work redone after a rewind is charged
// again. Rewinding to a zero Clock leaves the engines idle at zero;
// rewinding a zero Clock to a live one copies the live engine state.
func (c *Clock) Rewind(to *Clock) {
	c.dma, c.comp = to.dma, to.comp
	c.ready = slices.Clone(to.ready)
}

// Finish ends the plan: under overlap, Stats.WallTime and the clock become
// the later engine's free time.
func (c *Clock) Finish() {
	if c.overlapped() {
		c.stats.WallTime = max(c.dma, c.comp)
		c.now = c.stats.WallTime
	}
}

// Now returns the serialized clock in modeled seconds.
func (c *Clock) Now() float64 { return c.now }

// Stats returns what the clock has charged so far.
func (c *Clock) Stats() gpu.Stats { return c.stats }

// Fold steps a fresh clock through every step of p in plan order and
// returns its Stats: the modeled seconds of p on spec, bit-identical to
// what an execution charges when no fault or compaction adds a stall.
// When tr is non-nil it receives every step's interval, the events that
// execution records.
func Fold(p *Plan, spec gpu.Spec, overlap bool, tr *gpu.Trace) gpu.Stats {
	c := Clock{Spec: spec, Overlap: overlap}
	for _, s := range p.Steps {
		if ev, ok := c.Step(s); ok && tr != nil {
			tr.Add(ev)
		}
	}
	c.Finish()
	return c.stats
}
