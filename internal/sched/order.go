package sched

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/graph"
)

// DepthFirstOrder computes the paper's heuristic operator schedule
// (§3.3.1): a depth-first traversal that schedules the entire sub-tree
// feeding one consumer before exploring its sibling, maximizing data reuse
// between adjacent offloads. Implemented as a post-order DFS over the
// dependency graph starting from the nodes that produce template outputs.
func DepthFirstOrder(g *graph.Graph) ([]*graph.Node, error) {
	deps := g.Deps() // fresh per call, so its lists may be sorted in place
	order := make([]*graph.Node, 0, len(g.Nodes))
	state := make([]uint8, nodeIDBound(g)) // by node ID: 0 unvisited, 1 visiting, 2 done

	var visit func(n *graph.Node) error
	visit = func(n *graph.Node) error {
		switch state[n.ID] {
		case 1:
			return fmt.Errorf("sched: cycle at node %s", n)
		case 2:
			return nil
		}
		state[n.ID] = 1
		ds := deps[n.ID]
		slices.SortFunc(ds, func(a, b *graph.Node) int { return cmp.Compare(a.ID, b.ID) })
		for _, d := range ds {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[n.ID] = 2
		order = append(order, n)
		return nil
	}

	roots := outputNodes(g)
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

// outputNodes returns producers of template outputs, by node ID.
func outputNodes(g *graph.Graph) []*graph.Node {
	prod := producerByID(g)
	var out []*graph.Node
	for _, b := range g.OutputBuffers() {
		if p := prod[b.ID]; p != nil && !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b *graph.Node) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// GreedyMemoryAwareOrder addresses the drawback the paper itself notes
// about the depth-first schedule (§3.3.1: "the operator schedule does not
// take into account the GPU memory limitations at all ... there is scope
// for improvement"): it constructs the order greedily, always picking the
// ready operator that minimizes immediate transfer-in volume minus the
// volume its execution lets the scheduler free. Residency is approximated
// without capacity eviction; the actual transfer schedule still comes from
// ScheduleTransfers.
func GreedyMemoryAwareOrder(g *graph.Graph) ([]*graph.Node, error) {
	walk, ready := newKahn(g)
	remainingUses := map[int]int{}
	for id, cs := range g.Consumers() {
		remainingUses[id] = len(cs)
	}
	resident := map[int]bool{}

	score := func(n *graph.Node) (int64, int64) {
		var inCost, freed int64
		for _, b := range n.InputBuffers() {
			if !resident[b.ID] {
				inCost += b.Size()
			}
			if remainingUses[b.ID] == 1 && !b.IsOutput {
				freed += b.Size()
			}
		}
		return inCost, freed
	}

	var order []*graph.Node
	for len(ready) > 0 {
		best := 0
		bestIn, bestFreed := score(ready[0])
		for i := 1; i < len(ready); i++ {
			in, fr := score(ready[i])
			// Primary: least net residency growth (transfer-in minus
			// freed); secondary: most freed; tertiary: node ID.
			cur, bst := in-fr, bestIn-bestFreed
			if cur < bst || (cur == bst && (fr > bestFreed ||
				(fr == bestFreed && ready[i].ID < ready[best].ID))) {
				best, bestIn, bestFreed = i, in, fr
			}
		}
		n := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, n)

		for _, b := range n.InputBuffers() {
			resident[b.ID] = true
			remainingUses[b.ID]--
			if remainingUses[b.ID] <= 0 && !b.IsOutput {
				delete(resident, b.ID) // eagerly freed
			}
		}
		for _, b := range n.OutputBuffers() {
			resident[b.ID] = true
		}
		ready = walk.done(n, ready)
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("sched: cycle detected")
	}
	return order, nil
}

// BFSOrder is the breadth-first ablation order: Kahn's algorithm taking
// all ready nodes level by level. It tends to keep many intermediate
// buffers live at once, the opposite of the depth-first heuristic.
func BFSOrder(g *graph.Graph) ([]*graph.Node, error) {
	walk, level := newKahn(g)
	var order []*graph.Node
	for len(level) > 0 {
		sort.Slice(level, func(i, j int) bool { return level[i].ID < level[j].ID })
		var next []*graph.Node
		for _, n := range level {
			order = append(order, n)
			next = walk.done(n, next)
		}
		level = next
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("sched: cycle detected")
	}
	return order, nil
}

// RandomTopoOrder returns a uniformly random topological order (ablation
// baseline showing schedule sensitivity). The order is a function of the
// graph and the seed: Graph.Dependents lists consumers in g.Nodes order,
// so the ready list evolves identically on every call.
func RandomTopoOrder(g *graph.Graph, seed int64) ([]*graph.Node, error) {
	rng := rand.New(rand.NewSource(seed))
	walk, ready := newKahn(g)
	var order []*graph.Node
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		n := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, n)
		ready = walk.done(n, ready)
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("sched: cycle detected")
	}
	return order, nil
}

// kahn is the bookkeeping of a topological walk: how many unscheduled
// producers each node (by ID) waits for, and who waits on whom.
type kahn struct {
	indeg      map[int]int
	dependents map[int][]*graph.Node
}

// newKahn returns a walk over g and its initially ready nodes, in g.Nodes
// order.
func newKahn(g *graph.Graph) (*kahn, []*graph.Node) {
	deps := g.Deps()
	k := &kahn{indeg: make(map[int]int, len(g.Nodes)), dependents: g.Dependents()}
	var ready []*graph.Node
	for _, n := range g.Nodes {
		if k.indeg[n.ID] = len(deps[n.ID]); k.indeg[n.ID] == 0 {
			ready = append(ready, n)
		}
	}
	return k, ready
}

// done records n as scheduled and appends the dependents it made ready.
func (k *kahn) done(n *graph.Node, ready []*graph.Node) []*graph.Node {
	for _, m := range k.dependents[n.ID] {
		if k.indeg[m.ID]--; k.indeg[m.ID] == 0 {
			ready = append(ready, m)
		}
	}
	return ready
}
