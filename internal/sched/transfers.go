package sched

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/obs"
)

// EvictPolicy selects the victim when GPU memory must be reclaimed.
type EvictPolicy int

// Eviction policies. Belady is the paper's "latest time of use" rule
// (§3.3.1), provably optimal for equal-size buffers consumed once; FIFO
// is the naive baseline of Fig. 3.
const (
	Belady EvictPolicy = iota
	FIFO
)

// Options configures transfer scheduling.
type Options struct {
	// Capacity is the GPU memory available to the plan, in floats.
	Capacity int64
	// Policy is the eviction rule (default Belady).
	Policy EvictPolicy
	// NoEagerFree disables the paper's step 3 ("remove data eagerly...
	// delete them immediately after they become unnecessary"); used by the
	// eager-free ablation.
	NoEagerFree bool
	// Obs, when non-nil, receives compile-phase spans (unit analysis,
	// transfer scheduling) and scheduling metrics (evictions, writebacks,
	// eager frees). Nil disables instrumentation at zero cost.
	Obs *obs.Observer
	// HostValid marks buffer IDs whose host copies are valid before the
	// plan starts even though the graph does not produce them and they are
	// not template inputs. A cross-device partition sets it for cut
	// buffers another part ships to the host; everything else leaves it
	// nil.
	HostValid map[int]bool
	// Ship marks buffer IDs that must reach the host even though they are
	// not template outputs — the cut buffers other parts of a cross-device
	// partition consume. Each is copied down (once) as soon as its
	// producing operator completes, so consumer parts can start early, and
	// the plan fails if one never reaches the host.
	Ship map[int]bool
}

// ScheduleTransfers infers a minimal set of host↔GPU data transfers for
// executing the nodes in the given operator order within opt.Capacity
// floats of device memory (paper §3.3.1, second stage), with each operator
// as its own offload unit (the paper's implementation choice, §3.1): its
// operands are resident for its launch, and one host synchronization
// follows it. It returns an error if some node's own footprint exceeds
// the capacity (the operator splitting pass must run first) or if the
// order is not topological.
func ScheduleTransfers(g *graph.Graph, order []*graph.Node, opt Options) (*Plan, error) {
	if !g.IsTopoOrder(order) {
		return nil, fmt.Errorf("sched: unit sequence is not a topological order of the graph")
	}
	if opt.Capacity <= 0 {
		return nil, fmt.Errorf("sched: capacity must be positive")
	}

	sp := opt.Obs.T().Begin("sched:unit-analysis", "compile").
		SetArgf("units", "%d", len(order)).
		SetArgf("capacity_floats", "%d", opt.Capacity)

	// Per-buffer state is indexed by buffer ID. The per-operator sets are
	// stamps: pinned[id] == t+1 means "pinned for operator t", so no set
	// is cleared or reallocated between operators.
	nb := g.NumBufferIDs()
	pinned := make([]int32, nb)
	producedHere := make([]int32, nb)

	// Static use positions per buffer ("latest time of use" is
	// computable statically once the schedule is known), flat: the
	// operators reading buffer id are usePos[useAt[id]:useAt[id+1]],
	// ascending. eachUse visits each operator's distinct inputs, last
	// operator first (pinned stamps them, then is cleared): one walk
	// counts, the sums give each buffer's end, one walk fills backward.
	useAt := make([]int32, nb+1)
	eachUse := func(f func(id, t int)) {
		for t := len(order) - 1; t >= 0; t-- {
			for _, a := range order[t].In {
				for _, b := range a.Bufs {
					if pinned[b.ID] != int32(t+1) {
						pinned[b.ID] = int32(t + 1)
						f(b.ID, t)
					}
				}
			}
		}
		clear(pinned)
	}
	eachUse(func(id, _ int) { useAt[id]++ })
	for id := 1; id <= nb; id++ {
		useAt[id] += useAt[id-1]
	}
	usePos := make([]int32, useAt[nb])
	eachUse(func(id, t int) {
		useAt[id]--
		usePos[useAt[id]] = int32(t)
	})
	nextUse := func(id, t int) int {
		us := usePos[useAt[id]:useAt[id+1]]
		if i, _ := slices.BinarySearch(us, int32(t+1)); i < len(us) {
			return int(us[i])
		}
		return math.MaxInt
	}

	// slots[id] is buffer id's device state (buf == nil when it is not
	// resident); onDevice lists the resident slots for victim scans.
	slots := make([]res, nb)
	var onDevice []*res
	validHost := make([]bool, nb)
	for _, b := range g.LiveBuffers() {
		if b.IsInput || b.Root.IsInput || opt.HostValid[b.ID] {
			validHost[b.ID] = true
		}
	}
	sp.End()
	sp = opt.Obs.T().Begin("sched:transfers", "compile")
	m := opt.Obs.M()

	plan := &Plan{Order: order}
	var used int64
	emit := func(k StepKind, b *graph.Buffer, n *graph.Node) {
		plan.Steps = append(plan.Steps, Step{Kind: k, Buf: b, Node: n})
	}
	load := func(b *graph.Buffer, dirty bool, t int) {
		used += b.Size()
		slots[b.ID] = res{buf: b, dirty: dirty, loadedAt: t, at: len(onDevice)}
		onDevice = append(onDevice, &slots[b.ID])
	}
	free := func(r *res) {
		used -= r.buf.Size()
		emit(StepFree, r.buf, nil)
		last := onDevice[len(onDevice)-1]
		onDevice[r.at], last.at = last, r.at
		onDevice = onDevice[:len(onDevice)-1]
		*r = res{}
	}
	evict := func(r *res, t int) {
		liveLater := nextUse(r.buf.ID, t) != math.MaxInt || r.buf.IsOutput || opt.Ship[r.buf.ID]
		if liveLater {
			// The buffer will be needed again: this eviction forces a
			// future refetch, the cost the Belady rule minimizes.
			m.Counter("sched.evictions").Inc()
		}
		if r.dirty && liveLater && !validHost[r.buf.ID] {
			m.Counter("sched.writebacks").Inc()
			emit(StepD2H, r.buf, nil)
			validHost[r.buf.ID] = true
		}
		free(r)
	}

	var unitBufs, ins []*graph.Buffer
	for t, n := range order {
		// The operator's operand sets: everything it touches is pinned for
		// its launch; its outputs need space but no inbound transfer.
		stamp := int32(t + 1)
		unitBufs, ins = unitBufs[:0], ins[:0]
		pin := func(bs []*graph.Buffer) {
			for _, b := range bs {
				if pinned[b.ID] != stamp {
					pinned[b.ID] = stamp
					unitBufs = append(unitBufs, b)
				}
			}
		}
		for _, b := range n.Out.Bufs {
			producedHere[b.ID] = stamp
		}
		for _, a := range n.In {
			pin(a.Bufs)
			for _, b := range a.Bufs {
				if producedHere[b.ID] != stamp {
					ins = append(ins, b)
				}
			}
		}
		pin(n.Out.Bufs)
		var need int64
		for _, b := range unitBufs {
			if slots[b.ID].buf == nil {
				need += b.Size()
			}
		}

		// Reclaim space: free dead residents first, then evict by policy.
		for used+need > opt.Capacity {
			var victim, dead *res
			for _, r := range onDevice {
				if pinned[r.buf.ID] == stamp {
					continue
				}
				if nextUse(r.buf.ID, t) == math.MaxInt && !r.buf.IsOutput && !opt.Ship[r.buf.ID] {
					if dead == nil || r.buf.ID < dead.buf.ID {
						dead = r // dead: free without copy
					}
					continue
				}
				if victim == nil || betterVictim(opt.Policy, r, victim, t, nextUse) {
					victim = r
				}
			}
			if dead != nil {
				victim = dead
			}
			if victim == nil {
				return nil, fmt.Errorf(
					"%w: offload unit %d needs %d floats with %d resident and capacity %d; run the split pass",
					ErrInfeasible, t, need, used, opt.Capacity)
			}
			evict(victim, t)
		}

		for _, b := range ins {
			if slots[b.ID].buf != nil {
				continue
			}
			if !validHost[b.ID] {
				return nil, fmt.Errorf("sched: unit %d input %s is on neither host nor GPU", t, b)
			}
			emit(StepH2D, b, nil)
			load(b, false, t)
		}
		for _, b := range unitBufs {
			if producedHere[b.ID] == stamp {
				load(b, true, t)
				validHost[b.ID] = false // GPU will hold the only valid copy
			}
		}
		if used > plan.PeakFloats {
			plan.PeakFloats = used
		}
		emit(StepLaunch, nil, n)
		emit(StepSync, nil, nil)

		// Ship cut buffers the moment their producing operator completes,
		// whether or not this part still uses them: a consumer part is
		// blocked on the host copy, so a late (drain-time) D2H would
		// serialize the whole partition.
		if len(opt.Ship) > 0 {
			for _, b := range unitBufs {
				if producedHere[b.ID] == stamp && opt.Ship[b.ID] && !validHost[b.ID] {
					if r := &slots[b.ID]; r.buf != nil {
						m.Counter("sched.ship_d2h").Inc()
						emit(StepD2H, b, nil)
						validHost[b.ID] = true
						r.dirty = false
					}
				}
			}
		}

		if !opt.NoEagerFree {
			for _, b := range unitBufs {
				r := &slots[b.ID]
				if r.buf == nil || nextUse(b.ID, t) != math.MaxInt {
					continue
				}
				m.Counter("sched.eager_frees").Inc()
				if b.IsOutput {
					// Template output with no further consumer: ship it to
					// the host now and release the space. (A cut buffer that
					// is also an output was already shipped above.)
					if !opt.Ship[b.ID] || !validHost[b.ID] {
						emit(StepD2H, b, nil)
						validHost[b.ID] = true
					}
				}
				free(r)
			}
		}
	}

	// Drain: outputs still on the GPU go home; everything is freed.
	for _, b := range g.LiveBuffers() {
		r := &slots[b.ID]
		if r.buf == nil {
			continue
		}
		if (b.IsOutput || opt.Ship[b.ID]) && !validHost[b.ID] {
			emit(StepD2H, b, nil)
			validHost[b.ID] = true
		}
		free(r)
	}
	for _, b := range g.OutputBuffers() {
		if !validHost[b.ID] {
			return nil, fmt.Errorf("sched: template output %s never reached the host", b)
		}
	}
	for _, b := range g.LiveBuffers() {
		if opt.Ship[b.ID] && !validHost[b.ID] {
			return nil, fmt.Errorf("sched: cut buffer %s never reached the host", b)
		}
	}
	h2d, d2h := plan.TransferFloats()
	sp.SetArgf("steps", "%d", len(plan.Steps)).
		SetArgf("h2d_floats", "%d", h2d).
		SetArgf("d2h_floats", "%d", d2h).
		SetArgf("peak_floats", "%d", plan.PeakFloats).
		End()
	return plan, nil
}

// res tracks one GPU-resident buffer during plan simulation.
type res struct {
	buf      *graph.Buffer
	dirty    bool // device copy newer than host
	loadedAt int  // operator index when brought to GPU (FIFO)
	at       int  // index in the resident list
}

// betterVictim reports whether a is a better eviction victim than b under
// the policy: Belady prefers the furthest next use; when next uses tie,
// the larger buffer goes first to free the most space per copy. All
// policies break remaining ties by buffer ID so plans are deterministic.
func betterVictim(p EvictPolicy, a, b *res, t int, nextUse func(id, t int) int) bool {
	switch p {
	case FIFO:
		if a.loadedAt != b.loadedAt {
			return a.loadedAt < b.loadedAt
		}
	default: // Belady
		na, nb := nextUse(a.buf.ID, t), nextUse(b.buf.ID, t)
		if na != nb {
			return na > nb
		}
		if a.buf.Size() != b.buf.Size() {
			return a.buf.Size() > b.buf.Size()
		}
	}
	return a.buf.ID < b.buf.ID
}
