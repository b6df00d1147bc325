package sched

import (
	"cmp"
	"fmt"
	"slices"

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
