package sched

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/templates"
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

// TestExactSearchAgreesWithHeuristicOnFig3 cross-checks the exact
// enumerator against the depth-first heuristic on the paper's Fig. 3
// template across a range of feasible capacities: the heuristic is
// claimed optimal there, so total transfer traffic must match exactly.
func TestExactSearchAgreesWithHeuristicOnFig3(t *testing.T) {
	for _, capacity := range []int64{4, 5, 6, 8, 16} {
		g, err := templates.EdgeDetectFig3(1)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Heuristic(g, capacity)
		if err != nil {
			t.Fatalf("capacity %d: heuristic: %v", capacity, err)
		}
		ex, evaluated, err := ExactSearch{Capacity: capacity}.Run(g)
		if err != nil {
			t.Fatalf("capacity %d: exact: %v", capacity, err)
		}
		if evaluated <= 0 {
			t.Fatalf("capacity %d: exact search evaluated %d orders", capacity, evaluated)
		}
		if got, want := h.TotalTransferFloats(), ex.TotalTransferFloats(); got != want {
			t.Fatalf("capacity %d: heuristic moves %d floats, exact optimum %d",
				capacity, got, want)
		}
		// The optimum must itself be a valid, in-capacity plan.
		if err := Verify(g, ex, capacity); err != nil {
			t.Fatalf("capacity %d: exact plan fails verification: %v", capacity, err)
		}
	}
}

// TestExactSearchRejectsInfeasibleCapacity pins the error path: when no
// topological order fits the memory budget, Run reports it instead of
// returning a broken plan.
func TestExactSearchRejectsInfeasibleCapacity(t *testing.T) {
	g, err := templates.EdgeDetectFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	p, evaluated, err := ExactSearch{Capacity: 1}.Run(g)
	if err == nil {
		t.Fatalf("exact search found a plan at capacity 1: %v", p.Steps)
	}
	if !strings.Contains(err.Error(), "no feasible order") {
		t.Fatalf("unexpected error: %v", err)
	}
	if evaluated <= 0 {
		t.Fatalf("expected orders to be evaluated before giving up, got %d", evaluated)
	}
}

// TestExactSearchMaxNodesGuard pins the size guard in both directions on
// the small Fig. 3 graph: a cap below the node count refuses the graph
// without enumerating, and a cap at the node count admits it.
func TestExactSearchMaxNodesGuard(t *testing.T) {
	g, err := templates.EdgeDetectFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	_, evaluated, err := ExactSearch{Capacity: 16, MaxNodes: len(g.Nodes) - 1}.Run(g)
	if err == nil {
		t.Fatal("exact search accepted a graph above MaxNodes")
	}
	if evaluated != 0 {
		t.Fatalf("guard should refuse before enumerating, evaluated %d orders", evaluated)
	}
	if _, _, err := (ExactSearch{Capacity: 16, MaxNodes: len(g.Nodes)}).Run(g); err != nil {
		t.Fatalf("MaxNodes equal to the node count should admit the graph: %v", err)
	}
}
