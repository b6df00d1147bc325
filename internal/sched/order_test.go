package sched

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// The ablation baselines of DESIGN.md §5: alternative operator orders to
// the depth-first heuristic, which the compile path never uses.

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
	remainingUses := map[int]int{} // by buffer ID: the nodes that read it
	for _, n := range g.Nodes {
		for _, b := range n.InputBuffers() {
			remainingUses[b.ID]++
		}
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
// graph and the seed: invertDeps lists dependents in g.Nodes order, so
// the ready list evolves identically on every call.
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

// invertDeps returns, for each node ID, the nodes that consume one of its
// outputs, in g.Nodes order (so RandomTopoOrder, which draws from these
// lists, is reproducible).
func invertDeps(g *graph.Graph, deps map[int][]*graph.Node) map[int][]*graph.Node {
	dependents := map[int][]*graph.Node{}
	for _, n := range g.Nodes {
		for _, d := range deps[n.ID] {
			dependents[d.ID] = append(dependents[d.ID], n)
		}
	}
	return dependents
}

// newKahn returns a walk over g and its initially ready nodes, in g.Nodes
// order.
func newKahn(g *graph.Graph) (*kahn, []*graph.Node) {
	deps := g.Deps()
	k := &kahn{indeg: make(map[int]int, len(g.Nodes)), dependents: invertDeps(g, deps)}
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

// String names the policy in test names and benchmark output.
func (p EvictPolicy) String() string {
	switch p {
	case Belady:
		return "latest-time-of-use"
	case FIFO:
		return "fifo"
	}
	return fmt.Sprintf("EvictPolicy(%d)", int(p))
}
