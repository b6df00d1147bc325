package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/split"
	"repro/internal/templates"
)

// The naive* functions are the map-based passes the slice-indexed ones in
// transfers.go, verify.go, deps.go, residency.go, plan.go and order.go
// replaced, kept verbatim (modulo names) as oracles: plans, step DAGs,
// residency artifacts and every error message must agree with them.

func naiveScheduleTransfers(g *graph.Graph, order []*graph.Node, opt Options) (*Plan, error) {
	units := make([][]*graph.Node, len(order))
	for i, n := range order {
		units[i] = []*graph.Node{n}
	}
	if !g.IsTopoOrder(order) {
		return nil, fmt.Errorf("sched: unit sequence is not a topological order of the graph")
	}
	if opt.Capacity <= 0 {
		return nil, fmt.Errorf("sched: capacity must be positive")
	}

	sp := opt.Obs.T().Begin("sched:unit-analysis", "compile").
		SetArgf("units", "%d", len(units)).
		SetArgf("capacity_floats", "%d", opt.Capacity)

	// Static use positions per buffer, at unit granularity ("latest time
	// of use" is computable statically once the schedule is known).
	usePos := make(map[int][]int)
	for t, u := range units {
		seen := map[int]bool{}
		for _, n := range u {
			for _, b := range n.InputBuffers() {
				if !seen[b.ID] {
					seen[b.ID] = true
					usePos[b.ID] = append(usePos[b.ID], t)
				}
			}
		}
	}
	nextUse := func(id, t int) int {
		for _, p := range usePos[id] {
			if p > t {
				return p
			}
		}
		return math.MaxInt
	}

	resident := make(map[int]*naiveRes)
	validHost := make(map[int]bool)
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
	free := func(r *naiveRes) {
		used -= r.buf.Size()
		delete(resident, r.buf.ID)
		emit(StepFree, r.buf, nil)
	}
	evict := func(r *naiveRes, t int) {
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

	for t, unit := range units {
		// The unit's operand sets: everything any member touches is pinned
		// for the unit's duration; buffers produced within the unit need
		// space but no inbound transfer.
		pinned := make(map[int]bool)
		producedHere := make(map[int]bool)
		var unitBufs []*graph.Buffer
		var ins []*graph.Buffer
		for _, n := range unit {
			for _, b := range n.OutputBuffers() {
				producedHere[b.ID] = true
			}
		}
		for _, n := range unit {
			for _, b := range n.Buffers() {
				if !pinned[b.ID] {
					pinned[b.ID] = true
					unitBufs = append(unitBufs, b)
				}
			}
			for _, b := range n.InputBuffers() {
				if !producedHere[b.ID] {
					ins = append(ins, b)
				}
			}
		}
		var need int64
		for _, b := range unitBufs {
			if _, ok := resident[b.ID]; !ok {
				need += b.Size()
			}
		}

		// Reclaim space: free dead residents first, then evict by policy.
		for used+need > opt.Capacity {
			var victim, dead *naiveRes
			for _, r := range resident {
				if pinned[r.buf.ID] {
					continue
				}
				if nextUse(r.buf.ID, t) == math.MaxInt && !r.buf.IsOutput && !opt.Ship[r.buf.ID] {
					if dead == nil || r.buf.ID < dead.buf.ID {
						dead = r // dead: free without copy
					}
					continue
				}
				if victim == nil || naiveBetterVictim(opt.Policy, r, victim, t, nextUse) {
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

		seenIn := map[int]bool{}
		for _, b := range ins {
			if seenIn[b.ID] {
				continue
			}
			seenIn[b.ID] = true
			if _, ok := resident[b.ID]; ok {
				continue
			}
			if producedHere[b.ID] {
				continue
			}
			if !validHost[b.ID] {
				return nil, fmt.Errorf("sched: unit %d input %s is on neither host nor GPU", t, b)
			}
			emit(StepH2D, b, nil)
			used += b.Size()
			resident[b.ID] = &naiveRes{buf: b, loadedAt: t}
		}
		for _, b := range unitBufs {
			if producedHere[b.ID] {
				used += b.Size()
				resident[b.ID] = &naiveRes{buf: b, dirty: true, loadedAt: t}
				validHost[b.ID] = false // GPU will hold the only valid copy
			}
		}
		if used > plan.PeakFloats {
			plan.PeakFloats = used
		}
		for _, n := range unit {
			emit(StepLaunch, nil, n)
		}
		emit(StepSync, nil, nil)

		// Ship cut buffers the moment their producing unit completes,
		// whether or not this part still uses them: a consumer part is
		// blocked on the host copy, so a late (drain-time) D2H would
		// serialize the whole partition.
		if len(opt.Ship) > 0 {
			for _, b := range unitBufs {
				if producedHere[b.ID] && opt.Ship[b.ID] && !validHost[b.ID] {
					if r, ok := resident[b.ID]; ok {
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
				r, ok := resident[b.ID]
				if !ok {
					continue
				}
				if nextUse(b.ID, t) != math.MaxInt {
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
					free(r)
					continue
				}
				free(r)
			}
		}
	}

	// Drain: outputs still on the GPU go home; everything is freed.
	for _, b := range g.LiveBuffers() {
		r, ok := resident[b.ID]
		if !ok {
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

type naiveRes struct {
	buf      *graph.Buffer
	dirty    bool // device copy newer than host
	loadedAt int  // step index when brought to GPU (FIFO)
}

func naiveBetterVictim(p EvictPolicy, a, b *naiveRes, t int, nextUse func(id, t int) int) bool {
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

func naiveVerifyPart(g *graph.Graph, plan *Plan, capacity int64, hostValid, ship map[int]bool) error {
	if g == nil {
		return fmt.Errorf("sched: verify: nil graph")
	}
	if plan == nil {
		return fmt.Errorf("sched: verify: nil plan")
	}
	if capacity <= 0 {
		return fmt.Errorf("sched: verify: capacity %d must be positive", capacity)
	}
	resident := map[int]bool{}
	validHost := map[int]bool{}
	launched := map[int]bool{}
	live := map[int]bool{}
	for _, b := range g.LiveBuffers() {
		live[b.ID] = true
		if b.IsInput || b.Root.IsInput || hostValid[b.ID] {
			validHost[b.ID] = true
		}
	}
	nodes := map[int]bool{}
	for _, n := range g.Nodes {
		nodes[n.ID] = true
	}
	prod := g.Producer()
	deps := g.Deps()
	var used int64

	for si, s := range plan.Steps {
		// Buffer and node references must point into this graph: a plan
		// built for (or corrupted with) a different graph is not
		// executable against it.
		switch s.Kind {
		case StepH2D, StepD2H, StepFree:
			if s.Buf == nil {
				return fmt.Errorf("sched: step %d: %s with nil buffer", si, s.Kind)
			}
			if !live[s.Buf.ID] {
				return fmt.Errorf("sched: step %d: %s of %s not in the graph", si, s.Kind, s.Buf)
			}
		case StepLaunch:
			if s.Node == nil {
				return fmt.Errorf("sched: step %d: launch with nil node", si)
			}
			if !nodes[s.Node.ID] {
				return fmt.Errorf("sched: step %d: launch of %s not in the graph", si, s.Node)
			}
		}
		switch s.Kind {
		case StepH2D:
			b := s.Buf
			if resident[b.ID] {
				return fmt.Errorf("sched: step %d: H2D of already-resident %s", si, b)
			}
			if !validHost[b.ID] {
				return fmt.Errorf("sched: step %d: H2D of %s without a valid host copy", si, b)
			}
			resident[b.ID] = true
			used += b.Size()
		case StepD2H:
			b := s.Buf
			if !resident[b.ID] {
				return fmt.Errorf("sched: step %d: D2H of non-resident %s", si, b)
			}
			// The device copy is only meaningful if the producer ran (or
			// the buffer was loaded from the host).
			if p, ok := prod[b.ID]; ok && !launched[p.ID] {
				return fmt.Errorf("sched: step %d: D2H of %s before its producer %s", si, b, p)
			}
			validHost[b.ID] = true
		case StepFree:
			b := s.Buf
			if !resident[b.ID] {
				return fmt.Errorf("sched: step %d: free of non-resident %s", si, b)
			}
			delete(resident, b.ID)
			used -= b.Size()
		case StepLaunch:
			n := s.Node
			if launched[n.ID] {
				return fmt.Errorf("sched: step %d: node %s launched twice", si, n)
			}
			for _, d := range deps[n.ID] {
				if !launched[d.ID] {
					return fmt.Errorf("sched: step %d: node %s before its dependency %s", si, n, d)
				}
			}
			for _, b := range n.InputBuffers() {
				if !resident[b.ID] {
					return fmt.Errorf("sched: step %d: launch %s with non-resident input %s", si, n, b)
				}
			}
			for _, b := range n.OutputBuffers() {
				if !resident[b.ID] {
					resident[b.ID] = true
					used += b.Size()
				}
				validHost[b.ID] = false
			}
			launched[n.ID] = true
		case StepSync:
			// no state
		default:
			return fmt.Errorf("sched: step %d: unknown step kind %v", si, s.Kind)
		}
		if used > capacity {
			return fmt.Errorf("sched: step %d: residency %d exceeds capacity %d", si, used, capacity)
		}
	}

	for _, n := range g.Nodes {
		if !launched[n.ID] {
			return fmt.Errorf("sched: node %s never launched", n)
		}
	}
	for _, b := range g.OutputBuffers() {
		if !validHost[b.ID] {
			return fmt.Errorf("sched: template output %s never reached the host", b)
		}
	}
	for _, b := range g.LiveBuffers() {
		if ship[b.ID] && !validHost[b.ID] {
			return fmt.Errorf("sched: cut buffer %s never reached the host", b)
		}
	}
	if len(resident) != 0 {
		return fmt.Errorf("sched: %d buffers left resident at plan end", len(resident))
	}
	return nil
}

type naiveHostAccess struct {
	step   int
	region graph.Region
	write  bool
}

func naiveStepDeps(p *Plan) (*Deps, error) {
	n := len(p.Steps)
	d := &Deps{Deps: make([][]int, n)}

	resident := make(map[int]bool)             // buffer ID -> device copy live
	writer := make(map[int]int)                // buffer ID -> step that produced the device copy
	readers := make(map[int][]int)             // buffer ID -> steps reading the device copy since writer
	hostAcc := make(map[int][]naiveHostAccess) // root ID -> host-region accesses
	lastFree := -1
	lastSync := -1
	var unitLaunches []int

	// hostDeps returns the prior conflicting accesses of b's root region.
	hostDeps := func(b *graph.Buffer, i int, write bool) []int {
		var out []int
		for _, a := range hostAcc[b.Root.ID] {
			if !a.write && !write {
				continue // read-read never conflicts
			}
			if _, ok := a.region.Intersect(b.Region); ok {
				out = append(out, a.step)
			}
		}
		hostAcc[b.Root.ID] = append(hostAcc[b.Root.ID], naiveHostAccess{step: i, region: b.Region, write: write})
		return out
	}

	for i, s := range p.Steps {
		var deps []int
		switch s.Kind {
		case StepH2D:
			b := s.Buf
			if resident[b.ID] {
				return nil, fmt.Errorf("sched: step %d: H2D of already-resident %s", i, b)
			}
			deps = append(deps, lastFree) // capacity chain (covers the prior lifetime's free too)
			deps = append(deps, hostDeps(b, i, false)...)
			resident[b.ID] = true
			writer[b.ID] = i
			delete(readers, b.ID)

		case StepD2H:
			b := s.Buf
			if !resident[b.ID] {
				return nil, fmt.Errorf("sched: step %d: D2H of non-resident %s", i, b)
			}
			deps = append(deps, writer[b.ID])
			deps = append(deps, hostDeps(b, i, true)...)
			readers[b.ID] = append(readers[b.ID], i)

		case StepFree:
			b := s.Buf
			if !resident[b.ID] {
				return nil, fmt.Errorf("sched: step %d: free of non-resident %s", i, b)
			}
			deps = append(deps, writer[b.ID])
			deps = append(deps, readers[b.ID]...)
			deps = append(deps, lastFree) // free chain: total order over frees
			delete(resident, b.ID)
			delete(writer, b.ID)
			delete(readers, b.ID)
			lastFree = i

		case StepLaunch:
			nd := s.Node
			for _, b := range nd.InputBuffers() {
				if !resident[b.ID] {
					return nil, fmt.Errorf("sched: step %d: launch %s with non-resident input %s", i, nd, b)
				}
				deps = append(deps, writer[b.ID])
			}
			allocates := false
			for _, b := range nd.OutputBuffers() {
				if resident[b.ID] {
					// Overwrite of a live buffer: wait for its producer
					// and for every reader still entitled to the old value.
					deps = append(deps, writer[b.ID])
					deps = append(deps, readers[b.ID]...)
				} else {
					allocates = true
				}
			}
			if allocates {
				deps = append(deps, lastFree) // capacity chain
			}
			for _, b := range nd.InputBuffers() {
				readers[b.ID] = append(readers[b.ID], i)
			}
			for _, b := range nd.OutputBuffers() {
				resident[b.ID] = true
				writer[b.ID] = i
				delete(readers, b.ID)
			}
			unitLaunches = append(unitLaunches, i)

		case StepSync:
			deps = append(deps, lastSync)
			deps = append(deps, unitLaunches...)
			lastSync = i
			unitLaunches = nil

		default:
			return nil, fmt.Errorf("sched: step %d: unknown kind %v", i, s.Kind)
		}

		d.Deps[i] = naiveDedupDeps(deps, i)
		d.Edges += len(d.Deps[i])
	}
	return d, nil
}

func naiveDedupDeps(deps []int, self int) []int {
	sort.Ints(deps)
	out := deps[:0]
	prev := -1
	for _, dep := range deps {
		if dep < 0 || dep == self || dep == prev {
			continue
		}
		out = append(out, dep)
		prev = dep
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func naiveAnalyzeResidency(p *Plan, spec gpu.Spec) (*Residency, error) {

	written := make(map[int]bool) // launch output or D2H target
	h2dSteps := make(map[int][]int)
	lastH2D := -1
	for i, s := range p.Steps {
		switch s.Kind {
		case StepH2D:
			h2dSteps[s.Buf.ID] = append(h2dSteps[s.Buf.ID], i)
			lastH2D = i
		case StepD2H:
			written[s.Buf.ID] = true
		case StepLaunch:
			for _, b := range s.Node.OutputBuffers() {
				written[b.ID] = true
			}
		}
	}

	res := &Residency{}
	shareable := make(map[int]bool)
	// plan.Buffers() is the canonical ascending-ID walk; its ordinal
	// positions are identical across compilations of equal-fingerprint
	// graphs (equal fingerprints compile to identical plans), which is
	// what makes the per-buffer digest a sound cross-job key.
	for ord, b := range naivePlanBuffers(p) {
		steps := h2dSteps[b.ID]
		if len(steps) == 0 || written[b.ID] || b.Root == nil || !b.Root.IsInput {
			continue
		}
		h := sha256.Sum256([]byte(fmt.Sprintf("ord=%d;reg=%d,%d,%d,%d;rootreg=%d,%d,%d,%d;est=%s",
			ord, b.Region.Row, b.Region.Col, b.Region.Rows, b.Region.Cols,
			b.Root.Region.Row, b.Root.Region.Col, b.Root.Region.Rows, b.Root.Region.Cols,
			b.Root.EstDigest)))
		res.Shareable = append(res.Shareable, ResidentBuf{
			ID:     b.ID,
			Name:   b.Name,
			Digest: hex.EncodeToString(h[:16]),
			Bytes:  b.Bytes(),
			Floats: b.Size(),
			Steps:  steps,
		})
		res.SharedBytes += b.Bytes()
		shareable[b.ID] = true
	}

	// Transient peak: replay the plan-order residency counting only
	// non-shareable buffers (the shareable set is accounted once,
	// pinned, by the serving ledger).
	live := make(map[int]int64)
	var resident, peak int64
	bump := func() {
		if resident > peak {
			peak = resident
		}
	}
	for _, s := range p.Steps {
		switch s.Kind {
		case StepH2D:
			b := s.Buf
			if shareable[b.ID] {
				continue
			}
			if _, ok := live[b.ID]; !ok {
				live[b.ID] = b.Bytes()
				resident += b.Bytes()
				bump()
			}
		case StepLaunch:
			for _, b := range s.Node.OutputBuffers() {
				if _, ok := live[b.ID]; !ok && !shareable[b.ID] {
					live[b.ID] = b.Bytes()
					resident += b.Bytes()
				}
			}
			bump()
		case StepFree:
			if sz, ok := live[s.Buf.ID]; ok {
				resident -= sz
				delete(live, s.Buf.ID)
			}
		}
	}
	res.TransientPeakBytes = peak

	// Lead steps: H2D steps with no transitive dependency on a launch.
	// Deps point strictly backward, so one forward pass suffices.
	deps, err := naiveStepDeps(p)
	if err != nil {
		return nil, fmt.Errorf("sched: residency analysis: %w", err)
	}
	tainted := make([]bool, len(p.Steps))
	for i, s := range p.Steps {
		if s.Kind == StepLaunch {
			tainted[i] = true
			continue
		}
		for _, d := range deps.Deps[i] {
			if tainted[d] {
				tainted[i] = true
				break
			}
		}
		if s.Kind == StepH2D && !tainted[i] {
			res.LeadSteps = append(res.LeadSteps, LeadStep{
				BufID:  s.Buf.ID,
				Floats: s.Buf.Size(),
				Sec:    spec.H2DDuration(s.Buf.Size()),
			})
		}
	}

	// Tail: modeled compute+sync time after the last H2D step.
	for i := lastH2D + 1; i < len(p.Steps); i++ {
		switch s := p.Steps[i]; s.Kind {
		case StepLaunch:
			n := s.Node
			var bytes int64
			for _, b := range n.Buffers() {
				bytes += b.Bytes()
			}
			inShapes := make([]graph.Shape, len(n.In))
			for j, a := range n.In {
				inShapes[j] = a.Shape()
			}
			res.TailSec += spec.KernelTime(n.Op.FLOPs(inShapes, n.Out.Shape()), n.Out.Region.Size(), bytes)
		case StepSync:
			res.TailSec += spec.SyncOverhead
		}
	}
	return res, nil
}

func naivePlanBuffers(p *Plan) []*graph.Buffer {
	seen := map[int]*graph.Buffer{}
	for _, s := range p.Steps {
		if s.Buf != nil {
			seen[s.Buf.ID] = s.Buf
		}
		if s.Node != nil {
			for _, b := range s.Node.Buffers() {
				seen[b.ID] = b
			}
		}
	}
	out := make([]*graph.Buffer, 0, len(seen))
	for _, b := range seen {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func naiveDepthFirstOrder(g *graph.Graph) ([]*graph.Node, error) {
	deps := g.Deps()
	var order []*graph.Node
	state := make(map[int]int) // 0 unvisited, 1 visiting, 2 done

	var visit func(n *graph.Node) error
	visit = func(n *graph.Node) error {
		switch state[n.ID] {
		case 1:
			return fmt.Errorf("sched: cycle at node %s", n)
		case 2:
			return nil
		}
		state[n.ID] = 1
		ds := append([]*graph.Node(nil), deps[n.ID]...)
		sort.Slice(ds, func(i, j int) bool { return ds[i].ID < ds[j].ID })
		for _, d := range ds {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[n.ID] = 2
		order = append(order, n)
		return nil
	}

	roots := naiveOutputNodes(g)
	for _, r := range roots {
		if err := visit(r); err != nil {
			return nil, err
		}
	}
	// Nodes not reachable from outputs (dead computation) still run.
	for _, n := range g.Nodes {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func naiveOutputNodes(g *graph.Graph) []*graph.Node {
	prod := g.Producer()
	seen := make(map[int]bool)
	var out []*graph.Node
	for _, b := range g.OutputBuffers() {
		if p, ok := prod[b.ID]; ok && !seen[p.ID] {
			seen[p.ID] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// oracleCase is one transfer-scheduling problem of the oracle corpus.
type oracleCase struct {
	name  string
	g     *graph.Graph
	order []*graph.Node
	opt   Options
	spec  gpu.Spec
}

// oracleCorpus builds scheduling problems over split and unsplit graphs:
// the depth-first order and seeded random orders under every eviction
// policy, with and without eager frees, and the parts of a cross-device
// partition (HostValid/Ship sets).
func oracleCorpus(t *testing.T) []oracleCase {
	t.Helper()
	arena := gpu.Custom("arena", 512<<10)
	arena.Headroom = 0.7
	type src struct {
		name string
		g    *graph.Graph
		spec gpu.Spec
	}
	var srcs []src
	add := func(name string, g *graph.Graph, err error, spec gpu.Spec) {
		if err != nil {
			t.Fatal(err)
		}
		if _, err := split.Apply(g, split.Options{Capacity: spec.PlannerCapacity()}); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src{name, g, spec})
	}
	fig3, err := templates.EdgeDetectFig3(1)
	add("fig3", fig3, err, gpu.Custom("fig3", 20))
	// An in-place node (it reads its own output) plans but never
	// verifies; every pass must agree with the oracle on it, error text
	// included.
	inPlace, _, err := templates.EdgeDetect(templates.EdgeConfig{ImageH: 8, ImageW: 8, KernelSize: 3, Orientations: 2})
	if err == nil {
		last := inPlace.Nodes[len(inPlace.Nodes)-1]
		last.In = append(last.In, last.Out)
	}
	add("in-place", inPlace, err, gpu.Custom("in-place", 1<<20))
	edge, _, err := templates.EdgeDetect(templates.EdgeConfig{ImageH: 64, ImageW: 48, KernelSize: 5, Orientations: 4})
	add("edge-64x48", edge, err, gpu.Custom("edge", 40<<10))
	small, _, err := templates.CNN(templates.SmallCNN(160, 120))
	add("small-cnn-160x120", small, err, arena)
	large, _, err := templates.CNN(templates.LargeCNN(640, 480))
	add("large-cnn-640x480", large, err, gpu.TeslaC870())

	var cases []oracleCase
	for _, s := range srcs {
		capacity := s.spec.PlannerCapacity()
		df, err := DepthFirstOrder(s.g)
		if err != nil {
			t.Fatal(err)
		}
		// Every policy on the depth-first order, Belady on random orders;
		// the Large CNN gets only the compile path's own problem.
		big := len(s.g.Nodes) > 5000
		type variant struct {
			order string
			nodes []*graph.Node
			pols  []EvictPolicy
		}
		variants := []variant{{"depth-first", df, []EvictPolicy{Belady, FIFO}}}
		for seed := int64(0); seed < 2 && !big; seed++ {
			r, err := RandomTopoOrder(s.g, seed)
			if err != nil {
				t.Fatal(err)
			}
			variants = append(variants, variant{fmt.Sprintf("random-%d", seed), r, []EvictPolicy{Belady}})
		}
		if big {
			variants[0].pols = variants[0].pols[:1]
		}
		for _, v := range variants {
			for _, pol := range v.pols {
				for _, noEager := range []bool{false, true} {
					if big && noEager {
						continue
					}
					cases = append(cases, oracleCase{
						name: fmt.Sprintf("%s/%s/%s/noeager=%v", s.name, v.order, pol, noEager),
						g:    s.g, order: v.nodes, spec: s.spec,
						opt: Options{Capacity: capacity, Policy: pol, NoEagerFree: noEager}})
				}
			}
		}
	}
	// Parts of a cross-device partition: subgraph views with cut buffers
	// that arrive through the host (HostValid) or must leave through it
	// (Ship).
	specs := partitionSpecs()
	pg := partitionGraph(t, specs)
	assign, ok := PartitionStripeAssign(pg, specs)
	if !ok {
		t.Fatal("stripe assignment declined")
	}
	pp, err := BuildPartition(pg, assign, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for p, part := range pp.Parts {
		cases = append(cases, oracleCase{name: fmt.Sprintf("partition-part-%d", p), g: part.Graph,
			order: part.Plan.Order, spec: part.Spec,
			opt: Options{Capacity: part.Capacity, HostValid: part.HostValid, Ship: part.Ship}})
	}
	return cases
}

// corruptions derives malformed variants of a plan: a produced buffer
// uploaded again after its last use, one of its first D2H steps dropped,
// a random step dropped, duplicated, or swapped with its successor, and a
// transfer retargeted at another buffer of the plan.
func corruptions(p *Plan, rng *rand.Rand) []*Plan {
	var out []*Plan
	mut := func(f func(s []Step) []Step) {
		out = append(out, &Plan{Steps: f(append([]Step(nil), p.Steps...)), Order: p.Order, PeakFloats: p.PeakFloats})
	}
	bufs := naivePlanBuffers(p)
	for _, st := range p.Steps {
		if b := st.Buf; st.Kind == StepFree && !b.Root.IsInput { // a stale re-upload
			mut(func(s []Step) []Step { return append(s, Step{Kind: StepH2D, Buf: b}, Step{Kind: StepFree, Buf: b}) })
			break
		}
	}
	for i, d2h := 0, 0; i < len(p.Steps) && d2h < 8; i++ {
		if i := i; p.Steps[i].Kind == StepD2H { // a write-back lost
			d2h++
			mut(func(s []Step) []Step { return append(s[:i], s[i+1:]...) })
		}
	}
	for k := 0; k < 3 && len(p.Steps) > 1; k++ {
		i := rng.Intn(len(p.Steps) - 1)
		mut(func(s []Step) []Step { return append(s[:i], s[i+1:]...) })
		mut(func(s []Step) []Step { return append(s[:i+1], s[i:]...) })
		mut(func(s []Step) []Step { s[i], s[i+1] = s[i+1], s[i]; return s })
		mut(func(s []Step) []Step {
			for j := i; j < len(s); j++ {
				if s[j].Buf != nil {
					s[j].Buf = bufs[rng.Intn(len(bufs))]
					break
				}
			}
			return s
		})
	}
	return out
}

func TestSchedPassesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	errText := func(err error) string { return fmt.Sprint(err) }
	for _, c := range oracleCorpus(t) {
		plan, err := ScheduleTransfers(c.g, c.order, c.opt)
		want, werr := naiveScheduleTransfers(c.g, c.order, c.opt)
		if errText(err) != errText(werr) {
			t.Fatalf("%s: ScheduleTransfers error %v, oracle %v", c.name, err, werr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(plan, want) {
			t.Fatalf("%s: ScheduleTransfers plan differs from the oracle", c.name)
		}
		derived := func(what string, v *Plan) {
			if got, want := v.Buffers(), naivePlanBuffers(v); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s Plan.Buffers differs from the oracle", c.name, what)
			}
			r, err := AnalyzeResidency(v, c.spec)
			wr, werr := naiveAnalyzeResidency(v, c.spec)
			if errText(err) != errText(werr) || !reflect.DeepEqual(r, wr) {
				t.Fatalf("%s: %s AnalyzeResidency differs from the oracle: %v / %v", c.name, what, err, werr)
			}
		}
		derived("plan", plan)
		// allHost marks every host copy valid at the start, so a launch
		// must be what invalidates them (small plans only, for time).
		hostSets := []map[int]bool{c.opt.HostValid}
		if len(plan.Steps) < 10000 {
			allHost := map[int]bool{}
			for _, b := range c.g.LiveBuffers() {
				allHost[b.ID] = true
			}
			hostSets = append(hostSets, allHost)
		}
		variants := append([]*Plan{plan}, corruptions(plan, rng)...)
		// The prefetched plan's hoisted H2Ds cross frees when capacity
		// allows. (PrefetchH2D is quadratic in plan length: one policy,
		// small plans only.)
		if c.opt.Policy == Belady && !c.opt.NoEagerFree && len(plan.Steps) < 10000 {
			pre := PrefetchH2D(plan, 4*c.opt.Capacity)
			derived("prefetched", pre)
			variants = append(variants, pre)
		}
		for vi, v := range variants {
			if got, want := v.Buffers(), naivePlanBuffers(v); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s variant %d: Plan.Buffers differs from the oracle", c.name, vi)
			}
			d, err := StepDeps(v)
			wd, werr := naiveStepDeps(v)
			if errText(err) != errText(werr) || !reflect.DeepEqual(d, wd) {
				t.Fatalf("%s variant %d: StepDeps differs from the oracle: %v / %v", c.name, vi, err, werr)
			}
			capacities := []int64{c.opt.Capacity}
			if vi == 0 && plan.PeakFloats > 1 {
				capacities = append(capacities, plan.PeakFloats-1)
			}
			for _, capacity := range capacities {
				for _, hostValid := range hostSets {
					err := VerifyPart(c.g, v, capacity, hostValid, c.opt.Ship)
					werr := naiveVerifyPart(c.g, v, capacity, hostValid, c.opt.Ship)
					if errText(err) != errText(werr) {
						t.Fatalf("%s variant %d capacity %d: VerifyPart %v, oracle %v", c.name, vi, capacity, err, werr)
					}
				}
			}
		}
	}
}

func TestDepthFirstOrderMatchesOracle(t *testing.T) {
	for _, c := range oracleCorpus(t) {
		got, err := DepthFirstOrder(c.g)
		want, werr := naiveDepthFirstOrder(c.g)
		if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DepthFirstOrder differs from the oracle", c.name)
		}
	}
}

// randomPlan is a seeded random step sequence over g that respects only
// device residency — what StepDeps validates — so it overwrites resident
// buffers, writes back and reloads overlapping regions, and frees, syncs
// and launches in orders no planner emits, and may end with buffers still
// resident.
func randomPlan(g *graph.Graph, rng *rand.Rand, n int) *Plan {
	bufs := g.LiveBuffers()
	resident := map[int]bool{}
	p := &Plan{}
	for len(p.Steps) < n {
		switch k := rng.Intn(5); {
		case k == 0:
			b := bufs[rng.Intn(len(bufs))]
			if in := g.Nodes[rng.Intn(len(g.Nodes))].InputBuffers(); rng.Intn(2) == 0 {
				b = in[rng.Intn(len(in))] // feeds launches
			}
			if !resident[b.ID] {
				resident[b.ID] = true
				p.Steps = append(p.Steps, Step{Kind: StepH2D, Buf: b})
			}
		case k == 1 || k == 2:
			if b := bufs[rng.Intn(len(bufs))]; resident[b.ID] {
				kind := StepD2H
				if k == 2 {
					kind = StepFree
					delete(resident, b.ID)
				}
				p.Steps = append(p.Steps, Step{Kind: kind, Buf: b})
			}
		case k == 3:
			nd := g.Nodes[rng.Intn(len(g.Nodes))]
			ok := true
			for _, b := range nd.InputBuffers() {
				ok = ok && resident[b.ID]
			}
			if ok {
				for _, b := range nd.Out.Bufs {
					resident[b.ID] = true
				}
				p.Steps = append(p.Steps, Step{Kind: StepLaunch, Node: nd})
			}
		default:
			p.Steps = append(p.Steps, Step{Kind: StepSync})
		}
	}
	for _, b := range bufs {
		if resident[b.ID] && rng.Intn(4) > 0 {
			p.Steps = append(p.Steps, Step{Kind: StepFree, Buf: b})
		}
	}
	return p
}

func TestRandomPlansMatchOracle(t *testing.T) {
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{ImageH: 64, ImageW: 48, KernelSize: 5, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec := gpu.Custom("edge", 40<<10)
	if _, err := split.Apply(g, split.Options{Capacity: spec.PlannerCapacity()}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	live := g.LiveBuffers()
	for i := 0; i < 300; i++ {
		p := randomPlan(g, rng, 20+rng.Intn(100))
		// Random cut-buffer sets reach the checks no planner's plan can:
		// a produced buffer with a host copy before its producer ran.
		hostValid, ship := map[int]bool{}, map[int]bool{}
		for _, b := range live {
			hostValid[b.ID] = rng.Intn(3) == 0
			ship[b.ID] = rng.Intn(8) == 0
		}
		if got, want := p.Buffers(), naivePlanBuffers(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("plan %d: Plan.Buffers differs from the oracle", i)
		}
		d, err := StepDeps(p)
		wd, werr := naiveStepDeps(p)
		if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(d, wd) {
			t.Fatalf("plan %d: StepDeps differs from the oracle: %v / %v", i, err, werr)
		}
		r, err := AnalyzeResidency(p, spec)
		wr, werr := naiveAnalyzeResidency(p, spec)
		if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(r, wr) {
			t.Fatalf("plan %d: AnalyzeResidency differs from the oracle: %v / %v", i, err, werr)
		}
		for _, capacity := range []int64{1 << 40, spec.PlannerCapacity()} {
			if got, want := fmt.Sprint(Verify(g, p, capacity)), fmt.Sprint(naiveVerifyPart(g, p, capacity, nil, nil)); got != want {
				t.Fatalf("plan %d: Verify %s, oracle %s", i, got, want)
			}
			got := fmt.Sprint(VerifyPart(g, p, capacity, hostValid, ship))
			if want := fmt.Sprint(naiveVerifyPart(g, p, capacity, hostValid, ship)); got != want {
				t.Fatalf("plan %d: VerifyPart %s, oracle %s", i, got, want)
			}
		}
	}
}
