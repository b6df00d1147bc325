// Package split implements the operator-splitting pass of the framework
// (paper §3.2): it rewrites a template's operator graph so that every
// operator's memory footprint fits the target GPU memory, enabling
// execution of templates whose data does not fit on the device.
//
// Splitting is row-wise over the operator's logical output. For each part,
// the operator's Splittable rule maps the output chunk back to the input
// regions it requires (identity for data-parallel operators, halo-inflated
// for convolutions, scaled for subsampling, replicated for kernel/bias
// matrices — exactly the "splitting rules or hints" of §3.2). Producers and
// consumers of a partitioned buffer are rewired, as the paper requires:
// an unsplit producer simply writes the partition's child buffers (like C1
// producing E1' and E1” in Fig. 3), and when a halo makes partitions
// overlap on a produced buffer, small boundary-strip buffers are added so
// that the partition stays exact while each part still sees its halo rows.
package split

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/obs"
)

// ErrInfeasible marks splitting failures where no row-wise partitioning
// brings an oversized operator under capacity (unsplittable operator, or
// no feasible split factor). Detect with errors.Is; core wraps it as
// core.ErrInfeasible.
var ErrInfeasible = errors.New("split: infeasible under capacity")

// Options configures the split pass.
type Options struct {
	// Capacity is the GPU memory available to a single offload unit, in
	// floats. The paper sets this below the physical memory to leave
	// headroom for fragmentation.
	Capacity int64
	// Obs, when non-nil, records one instant event per node split and the
	// pass's metrics (nodes split, parts created, rounds).
	Obs *obs.Observer
}

// Result reports what the pass did.
type Result struct {
	SplitNodes   int // operators that were split
	PartsCreated int // total part nodes created
	Rounds       int // scan rounds executed
}

// Feasible reports whether every operator of g fits within capacity.
func Feasible(g *graph.Graph, capacity int64) bool {
	for _, n := range g.Nodes {
		if n.Footprint() > capacity {
			return false
		}
	}
	return true
}

// maxRounds bounds the number of node splits Apply performs before it
// reports a graph that does not converge.
const maxRounds = 1 << 20

// Apply splits operators until every node of g fits within opt.Capacity
// (paper §3.2 steps 1-3). The graph is modified in place.
func Apply(g *graph.Graph, opt Options) (Result, error) {
	if opt.Capacity <= 0 {
		return Result{}, fmt.Errorf("split: capacity must be positive, got %d", opt.Capacity)
	}
	var res Result
	for {
		res.Rounds++
		if res.Rounds > maxRounds {
			return res, fmt.Errorf("split: exceeded %d rounds; graph not converging", maxRounds)
		}
		// Consumers before producers: split in reverse topological order so
		// that when a producer's turn comes its outputs already reflect any
		// downstream partitioning.
		order, err := g.TopoSort()
		if err != nil {
			return res, err
		}
		var victim *graph.Node
		var footprint int64
		for i := len(order) - 1; i >= 0; i-- {
			if fp := order[i].Footprint(); fp > opt.Capacity {
				victim, footprint = order[i], fp
				break
			}
		}
		if victim == nil {
			return res, nil
		}
		parts, err := splitNode(g, victim, opt)
		if err != nil {
			return res, fmt.Errorf("split: node %s (footprint %d > capacity %d): %w",
				victim, footprint, opt.Capacity, err)
		}
		res.SplitNodes++
		res.PartsCreated += parts
		if t := opt.Obs.T(); t != nil { // the arguments cost more than the no-op
			t.MarkWall("split:"+victim.Name, "compile", map[string]string{
				"footprint_floats": fmt.Sprint(footprint),
				"capacity_floats":  fmt.Sprint(opt.Capacity),
				"parts":            fmt.Sprint(parts),
			})
		}
		m := opt.Obs.M()
		m.Counter("split.nodes").Inc()
		m.Counter("split.parts").Add(int64(parts))
		m.Gauge("split.rounds").Set(float64(res.Rounds))
	}
}

// rowChunks partitions nRows into k nearly-equal contiguous chunks and
// returns their (start, length) pairs.
func rowChunks(nRows, k int) [][2]int {
	out := make([][2]int, 0, k)
	base := nRows / k
	rem := nRows % k
	start := 0
	for i := 0; i < k; i++ {
		n := base
		if i < rem {
			n++
		}
		out = append(out, [2]int{start, n})
		start += n
	}
	return out
}

// groupChunks partitions an already-split output arg's buffers into k
// contiguous groups aligned to existing buffer boundaries, returning local
// (start,len) row chunks relative to the arg's region.
func groupChunks(arg graph.Arg, k int) ([][2]int, error) {
	bufs := primaryBuffers(arg.Bufs)
	sort.Slice(bufs, func(i, j int) bool { return bufs[i].Region.Row < bufs[j].Region.Row })
	if len(bufs) < k {
		return nil, fmt.Errorf("output has %d buffers, cannot form %d parts", len(bufs), k)
	}
	total := arg.Region.Rows
	chunks := make([][2]int, 0, k)
	start := arg.Region.Row
	bi := 0
	for g := 0; g < k; g++ {
		remGroups := k - g
		mustLeave := remGroups - 1
		target := (arg.Region.Row + total - start + remGroups - 1) / remGroups
		end := start
		taken := 0
		for bi < len(bufs)-mustLeave {
			if taken > 0 && end-start >= target {
				break
			}
			end = bufs[bi].Region.Row + bufs[bi].Region.Rows
			bi++
			taken++
		}
		if taken == 0 {
			return nil, fmt.Errorf("could not form %d output groups", k)
		}
		chunks = append(chunks, [2]int{start - arg.Region.Row, end - start})
		start = end
	}
	if start != arg.Region.Row+arg.Region.Rows {
		return nil, fmt.Errorf("output groups do not span the region")
	}
	return chunks, nil
}

// freshOutput reports whether n's output is a single un-partitioned buffer
// (possibly accompanied by contained halo strips): the case where new
// child buffers are created rather than existing ones grouped.
func freshOutput(n *graph.Node) bool {
	p := primaryBuffers(n.Out.Bufs)
	return len(p) == 1 && p[0].Region == n.Out.Region
}

// outCost returns the floats written by a part whose output chunk is
// outReg: the chunk itself plus any duplicated strip buffers it contains,
// or — for grouped outputs — the sizes of the existing buffers assigned to
// the chunk.
func outCost(n *graph.Node, outReg graph.Region) int64 {
	if freshOutput(n) {
		// EstimateRegion, not Region.Size: a sparse root's packed
		// footprint depends on which rows the chunk covers.
		primary := primaryBuffers(n.Out.Bufs)[0]
		cost := primary.EstimateRegion(outReg)
		for _, b := range n.Out.Bufs {
			if b != primary && outReg.Contains(b.Region) {
				cost += b.Size()
			}
		}
		return cost
	}
	var cost int64
	for _, b := range n.Out.Bufs {
		if outReg.Contains(b.Region) {
			cost += b.Size()
		}
	}
	return cost
}

// primaryBuffers filters out buffers whose region is contained in another
// buffer of the set (halo strips duplicated next to exact chunks); the
// remaining "primary" buffers tile the covered area exactly.
func primaryBuffers(bufs []*graph.Buffer) []*graph.Buffer {
	var out []*graph.Buffer
	for _, b := range bufs {
		contained := false
		for _, o := range bufs {
			if o != b && o.Region.Contains(b.Region) && o.Region != b.Region {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, b)
		}
	}
	return out
}

// coveringSubset returns the minimal set of buffers from bufs (assumed to
// span the full column range) whose row ranges cover want, sorted by row.
func coveringSubset(bufs []*graph.Buffer, want graph.Region) ([]*graph.Buffer, error) {
	sorted := append([]*graph.Buffer(nil), bufs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Region.Row < sorted[j].Region.Row })
	var out []*graph.Buffer
	for _, b := range sorted {
		if _, ok := b.Region.Intersect(want); ok {
			out = append(out, b)
		}
	}
	a := graph.Arg{Region: want, Bufs: out}
	if len(out) == 0 || !a.Covered() {
		return nil, fmt.Errorf("buffers do not cover region %v", want)
	}
	return out, nil
}

// inputPlan describes how one part of a split will source one input arg.
type inputPlan struct {
	replicate bool         // use the original arg unchanged
	region    graph.Region // root-coordinate region needed (when !replicate)
}

// partGeometry computes, for a candidate part count k, the output chunk
// regions (root coords) and per-part input plans. It returns an error if
// the operator is not splittable or the geometry is invalid.
func partGeometry(n *graph.Node, k int) (outRegs []graph.Region, plans [][]inputPlan, err error) {
	sp, ok := n.Op.(graph.Splittable)
	if !ok {
		return nil, nil, fmt.Errorf("%w: operator %s is not splittable", ErrInfeasible, n.Op.Kind())
	}
	outR := n.Out.Region
	if k > outR.Rows {
		return nil, nil, fmt.Errorf("cannot split %d output rows into %d parts", outR.Rows, k)
	}
	inRegs := make([]graph.Region, len(n.In))
	for i, a := range n.In {
		inRegs[i] = a.Region
	}
	var chunks [][2]int
	if freshOutput(n) {
		chunks = rowChunks(outR.Rows, k)
	} else {
		chunks, err = groupChunks(n.Out, k)
		if err != nil {
			return nil, nil, err
		}
	}
	plans = make([][]inputPlan, k)
	for pi, ch := range chunks {
		// Output chunk in the output root's coordinate space; split rules
		// operate directly in root coordinates.
		chunkReg := graph.Region{
			Row: outR.Row + ch[0], Col: outR.Col, Rows: ch[1], Cols: outR.Cols,
		}
		outRegs = append(outRegs, chunkReg)
		plans[pi] = make([]inputPlan, len(n.In))
		for ii := range n.In {
			reg, repl := sp.InputRegion(ii, chunkReg, inRegs)
			if repl {
				plans[pi][ii] = inputPlan{replicate: true}
				continue
			}
			if !n.In[ii].Region.Contains(reg) {
				return nil, nil, fmt.Errorf("input %d region %v escapes arg region %v",
					ii, reg, n.In[ii].Region)
			}
			plans[pi][ii] = inputPlan{region: reg}
		}
	}
	return outRegs, plans, nil
}

// partFootprint estimates the footprint (floats) of part pi without
// mutating the graph. Input args already composed of multiple buffers are
// costed by their covering subset; single-buffer args by the exact region
// needed (plus nothing: strips replace rather than add rows for the part
// itself).
func partFootprint(n *graph.Node, outReg graph.Region, plan []inputPlan) (int64, error) {
	seen := make(map[int]bool)
	total := outCost(n, outReg)
	for ii, p := range plan {
		arg := n.In[ii]
		if p.replicate {
			for _, b := range arg.Bufs {
				if !seen[b.ID] {
					seen[b.ID] = true
					total += b.Size()
				}
			}
			continue
		}
		if len(arg.Bufs) == 1 && arg.Bufs[0].Region == arg.Region {
			// Fresh partition: the part will reference exactly p.region
			// (possibly as chunk+strip buffers totalling the same rows).
			// Route through the root's footprint estimator so sparse
			// inputs are costed by the rows' packed size, not the dense
			// extent.
			total += arg.Bufs[0].EstimateRegion(p.region)
			continue
		}
		sub, err := coveringSubset(arg.Bufs, p.region)
		if err != nil {
			return 0, err
		}
		for _, b := range sub {
			if !seen[b.ID] {
				seen[b.ID] = true
				total += b.Size()
			}
		}
	}
	return total, nil
}

// chooseParts finds the smallest k >= 2 whose largest part footprint fits
// capacity. When existing partition boundaries are too coarse for any k to
// fit fully, it falls back to the k that most reduces the largest part
// footprint — later split rounds then split the oversized parts further
// (Apply iterates "until it is feasible", §3.2 step 3).
func chooseParts(n *graph.Node, opt Options) (int, error) {
	maxK := n.Out.Region.Rows
	// When the output is already partitioned (by a downstream split),
	// prefer aligning to that partition: one part per existing chunk keeps
	// the whole pipeline chunk-wise, so the depth-first schedule can
	// finish a chunk before touching the next (the Fig. 3(b) shape).
	var candidates []int
	if !freshOutput(n) {
		if p := len(primaryBuffers(n.Out.Bufs)); p >= 2 && p <= maxK {
			candidates = append(candidates, p)
		}
	}
	for k := 2; k <= maxK; k++ {
		candidates = append(candidates, k)
	}
	var lastErr error
	bestK, bestMax := 0, n.Footprint()
	for _, k := range candidates {
		outRegs, plans, err := partGeometry(n, k)
		if err != nil {
			lastErr = err
			break // larger k cannot help if the geometry itself fails
		}
		var maxFP int64
		ok := true
		for pi := range outRegs {
			fp, err := partFootprint(n, outRegs[pi], plans[pi])
			if err != nil {
				lastErr = err
				ok = false
				break
			}
			if fp > maxFP {
				maxFP = fp
			}
		}
		if !ok {
			continue
		}
		if maxFP <= opt.Capacity {
			return k, nil
		}
		if maxFP < bestMax {
			bestK, bestMax = k, maxFP
		}
	}
	if bestK != 0 {
		return bestK, nil // best-effort: strictly shrinks the largest part
	}
	if lastErr != nil {
		return 0, fmt.Errorf("%w: no feasible split factor: %w", ErrInfeasible, lastErr)
	}
	return 0, fmt.Errorf("%w: no split factor up to %d makes parts fit", ErrInfeasible, maxK)
}
