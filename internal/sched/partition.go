// Cross-device partitioning (ROADMAP item 1): when one operator graph
// should run on several pool devices at once, the split pass has already
// cut every oversized operator into region parts; this file assigns the
// resulting nodes to devices, schedules one transfer plan per device with
// the ordinary single-device machinery (ScheduleTransfers over an
// induced subgraph), and joins the plans with explicit cross-device
// edges. A cut buffer — produced on one device, consumed on another —
// stages through the host, as the paper-era hardware requires: a D2H on
// the producer followed by an H2D on the consumer, both already present
// in the per-part plans (Options.Ship / Options.HostValid). The cross
// edges record which D2H feeds which H2D.
package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// PartPlan is one device's share of a partitioned execution.
type PartPlan struct {
	// Spec is the device this part is planned for; Capacity is the
	// planner capacity the plan was scheduled under (floats).
	Spec     gpu.Spec
	Capacity int64
	// Graph is the induced subgraph view holding exactly this part's
	// nodes; it shares node and buffer pointers with the full graph.
	Graph *graph.Graph
	// Plan is the part's ordinary single-device transfer plan.
	Plan *Plan
	// HostValid marks cut buffers another part stages to the host before
	// this part may load them; Ship marks cut buffers this part must
	// deliver to the host for other parts. Both sets were handed to
	// ScheduleTransfers, so the plan already contains the matching H2D/D2H
	// steps.
	HostValid map[int]bool
	Ship      map[int]bool
}

// CrossEdge orders one cut-buffer handoff between two parts: the H2D at
// Parts[To].Plan.Steps[ToStep] must not begin before the D2H at
// Parts[From].Plan.Steps[FromStep] has completed.
type CrossEdge struct {
	Buf      *graph.Buffer
	From, To int // part indices
	FromStep int // D2H index in Parts[From].Plan.Steps
	ToStep   int // H2D index in Parts[To].Plan.Steps
	// Sec is the modeled end-to-end duration of the handoff: the
	// producer's D2H followed by the consumer's H2D.
	Sec float64
}

// PartitionedPlan is an operator graph cut across k devices: one
// ordinary plan per device plus the cross-device edges joining them.
// Within a part, execution order is the plan order; across parts, only
// the edges order steps — everything else runs concurrently.
type PartitionedPlan struct {
	Parts []PartPlan
	Edges []CrossEdge
}

// PartitionAssign maps each node of a (post-split) graph to one of k
// devices by earliest-finish list scheduling (HEFT-style): nodes are
// visited in the depth-first heuristic order, and each goes to the
// device where it would finish soonest, modeling the device's kernel
// time plus a cross-device transfer penalty (the producer's D2H and the
// consumer's H2D) for every input produced on another device. Chains
// therefore stay on one device (the transfer penalty beats nothing),
// while independent branches — parallel CNN planes, split-operator
// chunks — spill onto idle devices, which is exactly the inter-operator
// parallelism a partition exists to exploit. The result indexes
// parallel to g.Nodes.
func PartitionAssign(g *graph.Graph, specs []gpu.Spec) []int {
	k := len(specs)
	devs := make([]*gpu.Device, k)
	for i, s := range specs {
		devs[i] = gpu.New(s)
	}
	order, err := DepthFirstOrder(g)
	if err != nil {
		order = g.Nodes // cyclic graphs fail later, in BuildPartition
	}

	prod := g.Producer()
	partOf := make(map[int]int, len(g.Nodes))
	finish := make(map[int]float64, len(g.Nodes))
	free := make([]float64, k)
	for _, n := range order {
		bestP, bestF := 0, math.Inf(1)
		for p := 0; p < k; p++ {
			start := free[p]
			for _, b := range n.InputBuffers() {
				pn, ok := prod[b.ID]
				if !ok {
					continue // template input: loaded from the host anywhere
				}
				f := finish[pn.ID]
				if from := partOf[pn.ID]; from != p {
					f += devs[from].D2HDuration(b.Size()) + devs[p].H2DDuration(b.Size())
				}
				if f > start {
					start = f
				}
			}
			sec, _ := kernelTime(devs[p], n)
			fin := start + sec
			if fin < bestF {
				bestP, bestF = p, fin
			}
		}
		partOf[n.ID] = bestP
		finish[n.ID] = bestF
		free[bestP] = bestF
	}

	assign := make([]int, len(g.Nodes))
	for i, n := range g.Nodes {
		assign[i] = partOf[n.ID]
	}
	return assign
}

// PartitionStripeAssign maps each node of a (post-split) graph to one of
// k devices by spatial striping: the root coordinate space is divided
// into contiguous row stripes — one per device, widths proportional to
// each device's modeled throughput on the whole graph — and a node lands
// on the device whose stripe contains its output region's row center.
// Chunks of one split operator therefore divide between devices exactly
// once, and the cut reduces to halo exchanges at stripe boundaries
// instead of the layer-interior shredding a greedy earliest-finish
// assignment produces on deep pipelines. Nodes with no spatial extent
// (output spanning the full root, so there is no row to stripe by)
// follow the part that produced most of their input bytes. ok=false
// means no node has a strict sub-extent of its root — nothing to stripe
// — and the caller should use PartitionAssign instead.
func PartitionStripeAssign(g *graph.Graph, specs []gpu.Spec) ([]int, bool) {
	k := len(specs)

	// Stripe boundaries: share of the row space ∝ modeled whole-graph
	// throughput, so both stripes finish together instead of the slower
	// card gating the joined makespan.
	rate := make([]float64, k)
	var rateSum float64
	for p, s := range specs {
		dev := gpu.New(s)
		bw := math.Min(s.H2DBandwidth, s.D2HBandwidth)
		var t float64
		for _, n := range g.Nodes {
			sec, bytes := kernelTime(dev, n)
			t += sec
			t += float64(bytes) / bw
		}
		if t <= 0 {
			t = 1
		}
		rate[p] = 1 / t
		rateSum += rate[p]
	}
	bound := make([]float64, k) // upper fraction of each stripe
	acc := 0.0
	for p := 0; p < k; p++ {
		acc += rate[p] / rateSum
		bound[p] = acc
	}
	bound[k-1] = 1 // guard against rounding

	stripeOf := func(frac float64) int {
		for p := 0; p < k; p++ {
			if frac < bound[p] {
				return p
			}
		}
		return k - 1
	}

	partOf := make(map[int]int, len(g.Nodes))
	spatial := 0
	var flexible []*graph.Node
	for _, n := range g.Nodes {
		root := n.Out.Root()
		if root == nil || root.Region.Rows <= 0 || n.Out.Region.Rows >= root.Region.Rows {
			flexible = append(flexible, n)
			continue
		}
		frac := (float64(n.Out.Region.Row) + float64(n.Out.Region.Rows)/2) / float64(root.Region.Rows)
		partOf[n.ID] = stripeOf(frac)
		spatial++
	}
	if spatial == 0 {
		return nil, false
	}

	// Full-extent nodes follow their heaviest producer: g.Nodes is in
	// creation (topological) order, so producers of a node's inputs are
	// already assigned when it is visited.
	prod := g.Producer()
	for _, n := range flexible {
		weight := make([]int64, k)
		for _, b := range n.InputBuffers() {
			if pn, ok := prod[b.ID]; ok {
				if p, ok := partOf[pn.ID]; ok {
					weight[p] += b.Bytes()
				}
			}
		}
		best := 0
		for p := 1; p < k; p++ {
			if weight[p] > weight[best] {
				best = p
			}
		}
		partOf[n.ID] = best
	}

	assign := make([]int, len(g.Nodes))
	for i, n := range g.Nodes {
		assign[i] = partOf[n.ID]
	}
	return assign, true
}

// PartitionChainAssign maps each node of a (post-split) graph to one of
// k devices by chain clustering: every producer→consumer link over a
// buffer with exactly one consumer is coarsened into a cluster, so an
// operator pipeline that hands a private intermediate down the line — a
// CNN plane's convolution/accumulate chain, a split chunk's per-part
// pipeline — always lands on one device. The clusters are then spread by
// longest-processing-time greedy over unrelated machines: clusters in
// descending modeled weight, each to the device that finishes it
// soonest, with weight = kernel time plus staging the cluster's bytes at
// the device's bus bandwidth (paper-scale templates are bus-bound, so
// balancing compute alone would skew the join). The cut then consists
// only of fan-out buffers — layer boundaries that cross no matter how
// the clusters land — instead of the chain-interior shredding an
// earliest-finish assignment produces. ok=false means there are fewer
// clusters than devices: the graph is one serial chain and cannot fill
// the pool.
func PartitionChainAssign(g *graph.Graph, specs []gpu.Spec) ([]int, bool) {
	k := len(specs)
	idx := make(map[int]int, len(g.Nodes))
	for i, n := range g.Nodes {
		idx[n.ID] = i
	}

	// Coarsen single-consumer links with a union-find over node indices.
	consumers := make(map[int]int)
	for _, n := range g.Nodes {
		for _, b := range n.InputBuffers() {
			consumers[b.ID]++
		}
	}
	parent := make([]int, len(g.Nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	prod := g.Producer()
	for _, n := range g.Nodes {
		for _, b := range n.InputBuffers() {
			pn, ok := prod[b.ID]
			if !ok {
				continue // template input: no producer to chain with
			}
			// A template output has an external reader, so its producer's
			// placement stays free even if only one node consumes it.
			if consumers[b.ID] != 1 || b.IsOutput || (b.Root != nil && b.Root.IsOutput) {
				continue
			}
			ra, rb := find(idx[pn.ID]), find(idx[n.ID])
			if ra != rb {
				parent[rb] = ra
			}
		}
	}

	// Cluster weights: modeled device-seconds per spec, compute plus bus.
	devs := make([]*gpu.Device, k)
	bw := make([]float64, k)
	for p, s := range specs {
		devs[p] = gpu.New(s)
		bw[p] = math.Min(s.H2DBandwidth, s.D2HBandwidth)
	}
	type cluster struct {
		nodes []int
		w     []float64
	}
	byRoot := make(map[int]*cluster)
	var clusters []*cluster
	for i, n := range g.Nodes {
		r := find(i)
		c := byRoot[r]
		if c == nil {
			c = &cluster{w: make([]float64, k)}
			byRoot[r] = c
			clusters = append(clusters, c)
		}
		c.nodes = append(c.nodes, i)
		for p := 0; p < k; p++ {
			sec, bytes := kernelTime(devs[p], n)
			c.w[p] += sec + float64(bytes)/bw[p]
		}
	}
	if len(clusters) < k {
		return nil, false
	}

	// LPT greedy: heaviest cluster first (node order breaks ties, so the
	// assignment is deterministic), each to its earliest-finish device.
	sort.SliceStable(clusters, func(i, j int) bool {
		if clusters[i].w[0] != clusters[j].w[0] {
			return clusters[i].w[0] > clusters[j].w[0]
		}
		return clusters[i].nodes[0] < clusters[j].nodes[0]
	})
	load := make([]float64, k)
	assign := make([]int, len(g.Nodes))
	for _, c := range clusters {
		best := 0
		for p := 1; p < k; p++ {
			if load[p]+c.w[p] < load[best]+c.w[best] {
				best = p
			}
		}
		for _, i := range c.nodes {
			assign[i] = best
		}
		load[best] += c.w[best]
	}
	return assign, true
}

// BuildPartition schedules a cross-device plan: assign[i] names the
// device (index into specs) that runs g.Nodes[i]. Each part is planned
// with ScheduleTransfers under its own spec's PlannerCapacity —
// per-operator offload units in a depth-first order, exactly the paper's
// heuristic — and validated with VerifyPart and StepDeps; cut buffers
// become Ship/HostValid sets and the returned cross edges. opt supplies
// the eviction policy, eager-free flag, and observer; opt.Capacity is
// ignored (each part uses its device's capacity).
func BuildPartition(g *graph.Graph, assign []int, specs []gpu.Spec, opt Options) (*PartitionedPlan, error) {
	k := len(specs)
	if k < 2 {
		return nil, fmt.Errorf("sched: partition needs at least 2 devices, got %d", k)
	}
	if len(assign) != len(g.Nodes) {
		return nil, fmt.Errorf("sched: partition assignment covers %d of %d nodes", len(assign), len(g.Nodes))
	}
	partOf := make(map[int]int, len(g.Nodes)) // node ID -> part
	for i, p := range assign {
		if p < 0 || p >= k {
			return nil, fmt.Errorf("sched: node %s assigned to device %d of %d", g.Nodes[i], p, k)
		}
		partOf[g.Nodes[i].ID] = p
	}

	order, err := DepthFirstOrder(g)
	if err != nil {
		return nil, err
	}
	partNodes := make([][]*graph.Node, k)
	for _, n := range order {
		p := partOf[n.ID]
		partNodes[p] = append(partNodes[p], n)
	}
	for p, nodes := range partNodes {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("%w: partition stripe for %s is empty — the graph is too small to cut across %d devices",
				ErrInfeasible, specs[p].Name, k)
		}
	}

	// Cut buffers: produced by one part, consumed (or output) by another.
	prod := g.Producer()
	ship := make([]map[int]bool, k)      // per producing part
	hostValid := make([]map[int]bool, k) // per consuming part
	for p := range ship {
		ship[p] = make(map[int]bool)
		hostValid[p] = make(map[int]bool)
	}
	for _, n := range g.Nodes {
		q := partOf[n.ID]
		for _, b := range n.InputBuffers() {
			pn, ok := prod[b.ID]
			if !ok {
				continue // template input: every part loads it from the host
			}
			if p := partOf[pn.ID]; p != q {
				ship[p][b.ID] = true
				hostValid[q][b.ID] = true
			}
		}
	}

	pp := &PartitionedPlan{Parts: make([]PartPlan, k)}
	devs := make([]*gpu.Device, k)
	for p := 0; p < k; p++ {
		devs[p] = gpu.New(specs[p])
		sub := g.Subgraph(partNodes[p])
		capacity := specs[p].PlannerCapacity()
		popt := Options{
			Capacity:    capacity,
			Policy:      opt.Policy,
			NoEagerFree: opt.NoEagerFree,
			Obs:         opt.Obs,
			HostValid:   hostValid[p],
			Ship:        ship[p],
		}
		plan, err := ScheduleTransfers(sub, partNodes[p], popt)
		if err != nil {
			return nil, fmt.Errorf("sched: partition part %d (%s): %w", p, specs[p].Name, err)
		}
		if err := VerifyPart(sub, plan, capacity, hostValid[p], ship[p]); err != nil {
			return nil, fmt.Errorf("sched: partition part %d (%s): %w", p, specs[p].Name, err)
		}
		if _, err := StepDeps(plan); err != nil {
			return nil, fmt.Errorf("sched: partition part %d (%s): %w", p, specs[p].Name, err)
		}
		pp.Parts[p] = PartPlan{
			Spec: specs[p], Capacity: capacity, Graph: sub, Plan: plan,
			HostValid: hostValid[p], Ship: ship[p],
		}
	}

	// Cross edges: for every H2D of a cut buffer, the producing part's
	// (first, hence only) D2H of that buffer. This is sched.StepDeps'
	// host-hazard rule projected across parts: the H2D reads exactly the
	// host bytes that D2H writes. Other host-region overlaps between
	// parts carry duplicated halo data written by the same producing
	// node, so they impose no additional ordering.
	firstD2H := make([]map[int]int, k)
	for p := range pp.Parts {
		firstD2H[p] = make(map[int]int)
		for si, s := range pp.Parts[p].Plan.Steps {
			if s.Kind == StepD2H && ship[p][s.Buf.ID] {
				if _, ok := firstD2H[p][s.Buf.ID]; !ok {
					firstD2H[p][s.Buf.ID] = si
				}
			}
		}
	}
	prodPart := func(id int) int {
		if pn, ok := prod[id]; ok {
			return partOf[pn.ID]
		}
		return -1
	}
	for q := range pp.Parts {
		for si, s := range pp.Parts[q].Plan.Steps {
			if s.Kind != StepH2D || !hostValid[q][s.Buf.ID] {
				continue
			}
			p := prodPart(s.Buf.ID)
			if p < 0 || p == q {
				return nil, fmt.Errorf("sched: partition: cut buffer %s has no producing part", s.Buf)
			}
			from, ok := firstD2H[p][s.Buf.ID]
			if !ok {
				return nil, fmt.Errorf("sched: partition: part %d never ships cut buffer %s", p, s.Buf)
			}
			pp.Edges = append(pp.Edges, CrossEdge{
				Buf: s.Buf, From: p, To: q, FromStep: from, ToStep: si,
				Sec: devs[p].D2HDuration(s.Buf.Size()) + devs[q].H2DDuration(s.Buf.Size()),
			})
		}
	}
	sort.Slice(pp.Edges, func(i, j int) bool {
		a, b := pp.Edges[i], pp.Edges[j]
		if a.To != b.To {
			return a.To < b.To
		}
		return a.ToStep < b.ToStep
	})
	return pp, nil
}

// CutFloats returns the total float volume crossing device boundaries
// (each cut-buffer handoff counted once per consuming part).
func (pp *PartitionedPlan) CutFloats() int64 {
	var total int64
	for _, e := range pp.Edges {
		total += e.Buf.Size()
	}
	return total
}

// Makespan models the joined execution: each part replays its plan on
// its own device timeline (the same cost model the executor charges),
// and a cut H2D stalls until the producing part's D2H has completed.
// Both legs cost what the single-device executor would charge. Returns
// an error if the cross edges deadlock, which BuildPartition's
// construction precludes.
func (pp *PartitionedPlan) Makespan() (float64, error) {
	k := len(pp.Parts)
	devs := make([]*gpu.Device, k)
	for p := range pp.Parts {
		devs[p] = gpu.New(pp.Parts[p].Spec)
	}
	// in[q][si] is the edge feeding step si of part q (at most one: a cut
	// buffer has one producer); out[p][si] lists edges the D2H at (p,si)
	// feeds.
	in := make([]map[int]int, k)
	out := make([]map[int][]int, k)
	for p := 0; p < k; p++ {
		in[p] = make(map[int]int)
		out[p] = make(map[int][]int)
	}
	for ei, e := range pp.Edges {
		in[e.To][e.ToStep] = ei
		out[e.From][e.FromStep] = append(out[e.From][e.FromStep], ei)
	}

	ready := make([]float64, len(pp.Edges)) // D2H completion per edge
	done := make([]bool, len(pp.Edges))
	clock := make([]float64, k)
	idx := make([]int, k)

	stepSec := func(p int, s Step) float64 {
		dev := devs[p]
		switch s.Kind {
		case StepH2D:
			return dev.H2DDuration(s.Buf.Size())
		case StepD2H:
			return dev.D2HDuration(s.Buf.Size())
		case StepLaunch:
			sec, _ := kernelTime(dev, s.Node)
			return sec
		case StepSync:
			return pp.Parts[p].Spec.SyncOverhead
		}
		return 0 // Free
	}

	remaining := 0
	for p := range pp.Parts {
		remaining += len(pp.Parts[p].Plan.Steps)
	}
	for remaining > 0 {
		progress := false
		for p := 0; p < k; p++ {
			steps := pp.Parts[p].Plan.Steps
			for idx[p] < len(steps) {
				si := idx[p]
				s := steps[si]
				start := clock[p]
				if ei, ok := in[p][si]; ok {
					if !done[ei] {
						break // producer has not shipped the cut buffer yet
					}
					if ready[ei] > start {
						start = ready[ei]
					}
				}
				end := start + stepSec(p, s)
				for _, ei := range out[p][si] {
					ready[ei] = end
					done[ei] = true
				}
				clock[p] = end
				idx[p]++
				remaining--
				progress = true
			}
		}
		if !progress {
			return 0, fmt.Errorf("sched: partitioned plan deadlocks on its cross-device edges")
		}
	}
	makespan := 0.0
	for p := range clock {
		makespan = math.Max(makespan, clock[p])
	}
	return makespan, nil
}

func (pp *PartitionedPlan) String() string {
	s := fmt.Sprintf("partitioned plan: %d parts, %d cut edges, %d cut floats\n",
		len(pp.Parts), len(pp.Edges), pp.CutFloats())
	for p, part := range pp.Parts {
		h, d := part.Plan.TransferFloats()
		s += fmt.Sprintf("  part %d %-18s ops=%-4d steps=%-5d H2D=%d D2H=%d peak=%d/%d\n",
			p, part.Spec.Name, len(part.Plan.Order), len(part.Plan.Steps), h, d, part.Plan.PeakFloats, part.Capacity)
	}
	return s
}
