package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// ExactSearch enumerates topological operator orders with branch-and-bound
// and returns the order whose latest-time-of-use transfer schedule moves
// the fewest floats. It is exact over operator orders (given the Belady
// transfer policy) and is used to cross-check the pseudo-Boolean optimum
// on small graphs; cost grows factorially, so MaxNodes guards against
// accidental use on large templates.
type ExactSearch struct {
	Capacity int64
	// MaxNodes caps the graph size (default 12).
	MaxNodes int
}

// Run performs the search. It returns the best plan found and the number
// of complete orders evaluated.
func (e ExactSearch) Run(g *graph.Graph) (*Plan, int, error) {
	maxNodes := e.MaxNodes
	if maxNodes == 0 {
		maxNodes = 12
	}
	if len(g.Nodes) > maxNodes {
		return nil, 0, fmt.Errorf("sched: exact search limited to %d nodes, graph has %d",
			maxNodes, len(g.Nodes))
	}
	walk, _ := newKahn(g)
	indeg, dependents := walk.indeg, walk.dependents

	var best *Plan
	bestCost := int64(math.MaxInt64)
	evaluated := 0

	var order []*graph.Node
	var rec func()
	rec = func() {
		if len(order) == len(g.Nodes) {
			plan, err := ScheduleTransfers(g, order, Options{Capacity: e.Capacity})
			evaluated++
			if err != nil {
				return
			}
			if c := plan.TotalTransferFloats(); c < bestCost {
				bestCost = c
				cp := *plan
				cp.Order = append([]*graph.Node(nil), order...)
				best = &cp
			}
			return
		}
		var ready []*graph.Node
		for _, n := range g.Nodes {
			if indeg[n.ID] == 0 {
				scheduled := false
				for _, m := range order {
					if m == n {
						scheduled = true
						break
					}
				}
				if !scheduled {
					ready = append(ready, n)
				}
			}
		}
		sort.Slice(ready, func(i, j int) bool { return ready[i].ID < ready[j].ID })
		for _, n := range ready {
			order = append(order, n)
			for _, m := range dependents[n.ID] {
				indeg[m.ID]--
			}
			rec()
			for _, m := range dependents[n.ID] {
				indeg[m.ID]++
			}
			order = order[:len(order)-1]
		}
	}
	rec()
	if best == nil {
		return nil, evaluated, fmt.Errorf("%w: no feasible order found (capacity %d)", ErrInfeasible, e.Capacity)
	}
	return best, evaluated, nil
}
