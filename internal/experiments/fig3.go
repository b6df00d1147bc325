package experiments

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/pb"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Fig3Row is one (schedule, policy) measurement of the Fig. 3 experiment.
type Fig3Row struct {
	Schedule string
	Policy   string
	Units    int64 // transfer units (1 unit = the illustration's buffer size)
	Feasible bool
}

// fig3Order returns the named operator order of the Fig. 3 illustration.
func fig3Order(g *graph.Graph, names []string) ([]*graph.Node, error) {
	var out []*graph.Node
	for _, nm := range names {
		found := false
		for _, n := range g.Nodes {
			if n.Name == nm {
				out = append(out, n)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("experiments: fig3 node %q missing", nm)
		}
	}
	return out, nil
}

// Fig3 reproduces the schedule-comparison illustration: the split edge
// detection template with Im = 2 units and all other data 1 unit, under a
// GPU of capacityUnits units. The paper (with capacity 5) quotes 15 units
// for the breadth-leaning schedule (a) and 8 for the depth-first schedule
// (b); with the paper's own latest-time-of-use transfer scheduler the
// contrast appears at 4 units: (a) costs 12 (16 under naive FIFO), (b)
// costs exactly 8.
func Fig3(capacityUnits int64) ([]Fig3Row, error) {
	g, _, err := workload.Spec{Template: "fig3"}.Build()
	if err != nil {
		return nil, err
	}
	a, err := fig3Order(g, []string{"C1", "C2", "R1'", "R1''", "R2'", "R2''", "max1", "max2"})
	if err != nil {
		return nil, err
	}
	b, err := fig3Order(g, []string{"C1", "C2", "R1'", "R2'", "max1", "R1''", "R2''", "max2"})
	if err != nil {
		return nil, err
	}

	var rows []Fig3Row
	add := func(name string, order []*graph.Node, opt sched.Options, policy string) {
		plan, err := sched.ScheduleTransfers(g, order, opt)
		if err != nil {
			rows = append(rows, Fig3Row{Schedule: name, Policy: policy})
			return
		}
		rows = append(rows, Fig3Row{
			Schedule: name, Policy: policy,
			Units: plan.TotalTransferFloats(), Feasible: true,
		})
	}
	add("(a) breadth-leaning", a,
		sched.Options{Capacity: capacityUnits, Policy: sched.FIFO, NoEagerFree: true}, "naive-fifo")
	add("(a) breadth-leaning", a,
		sched.Options{Capacity: capacityUnits}, "latest-time-of-use")
	add("(b) depth-first", b,
		sched.Options{Capacity: capacityUnits, Policy: sched.FIFO, NoEagerFree: true}, "naive-fifo")
	add("(b) depth-first", b,
		sched.Options{Capacity: capacityUnits}, "latest-time-of-use")
	return rows, nil
}

// Fig6Result is the PB-optimal schedule of the Fig. 3 template (the
// paper's Fig. 6): the optimal transfer cost and the full execution plan.
type Fig6Result struct {
	Status        pb.Result
	OptimalUnits  int64
	HeuristicCost int64
	Plan          *sched.Plan
}

// Fig6 solves the pseudo-Boolean formulation for the Fig. 3 template at
// the given capacity and cross-checks the §3.3.1 heuristic against the
// optimum.
func Fig6(capacityUnits int64, maxConflicts int64) (*Fig6Result, error) {
	g, _, err := workload.Spec{Template: "fig3"}.Build()
	if err != nil {
		return nil, err
	}
	h, err := sched.Heuristic(g, capacityUnits)
	if err != nil {
		return nil, err
	}
	f, err := pb.Formulate(g, capacityUnits)
	if err != nil {
		return nil, err
	}
	res, err := f.Minimize(h.TotalTransferFloats(), maxConflicts)
	if err != nil {
		return nil, err
	}
	return &Fig6Result{
		Status:        res.Status,
		OptimalUnits:  res.Cost,
		HeuristicCost: h.TotalTransferFloats(),
		Plan:          res.Plan,
	}, nil
}
