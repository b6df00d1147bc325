package pb

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Formulation encodes the offload and data-transfer scheduling problem of
// a template as a pseudo-Boolean optimization instance, following the
// paper's Fig. 5 exactly: constraints (1)-(3) precedence & scheduling,
// (4) GPU memory, (5)-(8) GPU copy & persistence, (9)-(10) CPU copy &
// persistence, (11)-(13) initial & final conditions, and (14)-(19) data
// liveness. Two constraints the figure elides are added for soundness:
// a host→GPU copy requires a valid CPU copy, and a GPU→host copy requires
// a valid GPU copy.
//
// Time steps t = 1..N (one operator per step); copies at step t occur
// before the operator of step t executes; step N+1 models the final
// drain of outputs to the host.
type Formulation struct {
	Graph    *graph.Graph
	Capacity int64

	nodes []*graph.Node
	bufs  []*graph.Buffer
	n     int // time steps == number of operators

	x     map[[2]int]Lit // x[i][t]: operator i executes at t     (t: 1..N)
	g     map[[2]int]Lit // g[j][t]: buffer j on GPU at t         (t: 0..N)
	c     map[[2]int]Lit // c[j][t]: buffer j valid on CPU at t   (t: 0..N+1)
	copyG map[[2]int]Lit // copy j host->GPU at t                 (t: 1..N)
	copyC map[[2]int]Lit // copy j GPU->host at t                 (t: 1..N+1)
	done  map[[2]int]Lit // operator i done by t                  (t: 0..N)
	dead  map[[2]int]Lit // buffer j dead at t                    (t: 1..N+1)

	solver    *Solver
	objective []Term
	obs       *obs.Observer
}

// SetObserver attaches an observer: Minimize then records optimization
// spans and solver metrics. Nil (the default) disables instrumentation.
func (f *Formulation) SetObserver(o *obs.Observer) { f.obs = o }

// Formulate builds the PB instance for the graph under the given GPU
// memory capacity (floats). The graph must already be feasible per
// operator (run the split pass first).
func Formulate(g *graph.Graph, capacity int64) (*Formulation, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	f := &Formulation{
		Graph:    g,
		Capacity: capacity,
		nodes:    append([]*graph.Node(nil), g.Nodes...),
		bufs:     g.LiveBuffers(),
		n:        len(g.Nodes),
		x:        map[[2]int]Lit{},
		g:        map[[2]int]Lit{},
		c:        map[[2]int]Lit{},
		copyG:    map[[2]int]Lit{},
		copyC:    map[[2]int]Lit{},
		done:     map[[2]int]Lit{},
		dead:     map[[2]int]Lit{},
		solver:   NewSolver(),
	}
	if err := f.build(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *Formulation) lit(m map[[2]int]Lit, a, b int) Lit {
	key := [2]int{a, b}
	if l, ok := m[key]; ok {
		return l
	}
	l := Lit(f.solver.NewVar())
	m[key] = l
	return l
}

// ia reports whether buffer j is an input of operator i; oa likewise for
// outputs.
func (f *Formulation) ia(i int, bufID int) bool {
	for _, b := range f.nodes[i].InputBuffers() {
		if b.ID == bufID {
			return true
		}
	}
	return false
}

func (f *Formulation) oa(i int, bufID int) bool {
	for _, b := range f.nodes[i].OutputBuffers() {
		if b.ID == bufID {
			return true
		}
	}
	return false
}

func (f *Formulation) build() error {
	s := f.solver
	N := f.n

	// Allocate all variables up front.
	for i := range f.nodes {
		for t := 1; t <= N; t++ {
			f.lit(f.x, i, t)
		}
		for t := 0; t <= N; t++ {
			f.lit(f.done, i, t)
		}
	}
	for j := range f.bufs {
		for t := 0; t <= N; t++ {
			f.lit(f.g, j, t)
		}
		for t := 0; t <= N+1; t++ {
			f.lit(f.c, j, t)
		}
		for t := 1; t <= N; t++ {
			f.lit(f.copyG, j, t)
		}
		for t := 1; t <= N+1; t++ {
			f.lit(f.copyC, j, t)
		}
		for t := 1; t <= N+1; t++ {
			f.lit(f.dead, j, t)
		}
	}

	// (1) exactly one operator per time step.
	for t := 1; t <= N; t++ {
		terms := make([]Term, N)
		for i := 0; i < N; i++ {
			terms[i] = Term{Coef: 1, Lit: f.x[[2]int{i, t}]}
		}
		if err := s.AddEQ(terms, 1); err != nil {
			return err
		}
	}
	// (2) each operator executes exactly once.
	for i := 0; i < N; i++ {
		terms := make([]Term, N)
		for t := 1; t <= N; t++ {
			terms[t-1] = Term{Coef: 1, Lit: f.x[[2]int{i, t}]}
		}
		if err := s.AddEQ(terms, 1); err != nil {
			return err
		}
	}
	// (3) precedence: a dependency must execute strictly earlier.
	idxOf := map[int]int{}
	for i, n := range f.nodes {
		idxOf[n.ID] = i
	}
	deps := f.Graph.Deps()
	for i, n := range f.nodes {
		for _, d := range deps[n.ID] {
			di := idxOf[d.ID]
			for t1 := 1; t1 <= N; t1++ { // d at t1, n at t2 <= t1 forbidden
				for t2 := 1; t2 <= t1; t2++ {
					if err := s.AddClause(f.x[[2]int{di, t1}].Neg(), f.x[[2]int{i, t2}].Neg()); err != nil {
						return err
					}
				}
			}
		}
	}
	// (4) GPU memory capacity at every step.
	for t := 1; t <= N; t++ {
		terms := make([]Term, len(f.bufs))
		for j, b := range f.bufs {
			terms[j] = Term{Coef: b.Size(), Lit: f.g[[2]int{j, t}]}
		}
		if err := s.AddLE(terms, f.Capacity); err != nil {
			return err
		}
	}

	for j, b := range f.bufs {
		var producers, consumers []int
		for i := range f.nodes {
			if f.oa(i, b.ID) {
				producers = append(producers, i)
			}
			if f.ia(i, b.ID) {
				consumers = append(consumers, i)
			}
		}
		for t := 1; t <= N; t++ {
			gt := f.g[[2]int{j, t}]
			gtPrev := f.g[[2]int{j, t - 1}]
			cpG := f.copyG[[2]int{j, t}]
			for _, i := range append(append([]int{}, producers...), consumers...) {
				// (5) operands must be on the GPU during execution.
				if err := s.AddImplication(f.x[[2]int{i, t}], gt); err != nil {
					return err
				}
			}
			for _, i := range consumers {
				// (6) an input absent at t-1 must be copied in at t.
				if err := s.AddClause(f.x[[2]int{i, t}].Neg(), gtPrev, cpG); err != nil {
					return err
				}
			}
			// (7) a copied buffer is on the GPU.
			if err := s.AddImplication(cpG, gt); err != nil {
				return err
			}
			// (extra) host->GPU copies need a valid CPU copy.
			if err := s.AddImplication(cpG, f.c[[2]int{j, t - 1}]); err != nil {
				return err
			}
			// (8) GPU persistence: present only if already present, just
			// copied, or just produced.
			lits := []Lit{gt.Neg(), gtPrev, cpG}
			for _, i := range producers {
				lits = append(lits, f.x[[2]int{i, t}])
			}
			if err := s.AddClause(lits...); err != nil {
				return err
			}
		}
		for t := 1; t <= N+1; t++ {
			cpC := f.copyC[[2]int{j, t}]
			// (extra) GPU->host copies need a valid GPU copy.
			if err := s.AddImplication(cpC, f.g[[2]int{j, t - 1}]); err != nil {
				return err
			}
			// (10) CPU persistence.
			if err := s.AddClause(f.c[[2]int{j, t}].Neg(), f.c[[2]int{j, t - 1}], cpC); err != nil {
				return err
			}
		}
		// (9) production invalidates the host copy unless copied out.
		for t := 1; t <= N; t++ {
			for _, i := range producers {
				if err := s.AddClause(f.x[[2]int{i, t}].Neg(),
					f.copyC[[2]int{j, t + 1}], f.c[[2]int{j, t + 1}].Neg()); err != nil {
					return err
				}
			}
		}
		// (11)/(12) initial conditions.
		if err := s.AddClause(f.c[[2]int{j, 0}]); err != nil {
			return err
		}
		if err := s.AddClause(f.g[[2]int{j, 0}].Neg()); err != nil {
			return err
		}
		// (13) outputs end on the host.
		if b.IsOutput {
			if err := s.AddClause(f.c[[2]int{j, N + 1}]); err != nil {
				return err
			}
		}

		// (16)-(18) deadness definition; (19) liveness requires residency.
		if b.IsOutput {
			for t := 1; t <= N+1; t++ {
				if err := s.AddClause(f.dead[[2]int{j, t}].Neg()); err != nil {
					return err
				}
			}
		} else {
			if err := s.AddClause(f.dead[[2]int{j, 1}].Neg()); err != nil {
				return err
			}
			for t := 1; t <= N; t++ {
				dNext := f.dead[[2]int{j, t + 1}]
				dCur := f.dead[[2]int{j, t}]
				// dead[t+1] <-> dead[t] ∨ (∧ consumers done[t]).
				// Forward implications:
				if err := s.AddImplication(dCur, dNext); err != nil {
					return err
				}
				allDone := make([]Lit, 0, len(consumers)+1)
				for _, i := range consumers {
					allDone = append(allDone, f.done[[2]int{i, t}])
				}
				if err := s.AddAndImplies(dNext, allDone...); err != nil {
					return err
				}
				// Reverse: dead[t+1] -> dead[t] ∨ done[i1,t]... requires
				// dead[t+1] -> dead[t] ∨ (∧ done) which in clausal form is
				// one clause per consumer: dead[t+1] -> dead[t] ∨ done[i,t].
				for _, i := range consumers {
					if err := s.AddClause(dNext.Neg(), dCur, f.done[[2]int{i, t}]); err != nil {
						return err
					}
				}
			}
		}
		for t := 1; t <= N; t++ {
			// (19) live data must be somewhere.
			if err := s.AddClause(f.dead[[2]int{j, t}],
				f.c[[2]int{j, t}], f.g[[2]int{j, t}]); err != nil {
				return err
			}
		}
	}

	// (14)/(15) done definition.
	for i := 0; i < N; i++ {
		if err := s.AddClause(f.done[[2]int{i, 0}].Neg()); err != nil {
			return err
		}
		for t := 1; t <= N; t++ {
			dt := f.done[[2]int{i, t}]
			dPrev := f.done[[2]int{i, t - 1}]
			xt := f.x[[2]int{i, t}]
			if err := s.AddImplication(xt, dt); err != nil {
				return err
			}
			if err := s.AddImplication(dPrev, dt); err != nil {
				return err
			}
			if err := s.AddClause(dt.Neg(), xt, dPrev); err != nil {
				return err
			}
		}
	}

	// Objective: total floats transferred in both directions.
	for j, b := range f.bufs {
		for t := 1; t <= N; t++ {
			f.objective = append(f.objective, Term{Coef: b.Size(), Lit: f.copyG[[2]int{j, t}]})
		}
		for t := 1; t <= N+1; t++ {
			f.objective = append(f.objective, Term{Coef: b.Size(), Lit: f.copyC[[2]int{j, t}]})
		}
	}
	return nil
}

// SolveResult is the outcome of PB-optimal scheduling.
type SolveResult struct {
	Status Result
	Cost   int64
	Plan   *sched.Plan
	Solves int
}

// Minimize runs the optimization loop. warmStart, if positive, seeds the
// search with the constraint objective <= warmStart (e.g. a heuristic
// plan's cost), which prunes without affecting optimality. maxConflicts
// (0 = unlimited) bounds each Solve call.
func (f *Formulation) Minimize(warmStart int64, maxConflicts int64) (SolveResult, error) {
	sp := f.obs.T().Begin("pb:minimize", "compile").
		SetArgf("vars", "%d", f.solver.NVars()).
		SetArgf("warm_start", "%d", warmStart).
		SetArgf("max_conflicts", "%d", maxConflicts)
	defer sp.End()
	if warmStart > 0 {
		if err := f.solver.AddLE(f.objective, warmStart); err != nil {
			return SolveResult{}, err
		}
	}
	f.solver.MaxConflicts = maxConflicts
	res, err := Minimize(f.solver, f.objective)
	if m := f.obs.M(); m != nil {
		m.Counter("pb.solves").Add(int64(res.Solves))
		m.Counter("pb.conflicts").Add(f.solver.Conflicts)
		m.Counter("pb.decisions").Add(f.solver.Decisions)
		m.Counter("pb.propagations").Add(f.solver.Propagations)
		m.Gauge("pb.cost").Set(float64(res.Cost))
	}
	sp.SetArgf("status", "%v", res.Status).
		SetArgf("cost", "%d", res.Cost).
		SetArgf("solves", "%d", res.Solves).
		SetArgf("conflicts", "%d", f.solver.Conflicts)
	if err != nil {
		return SolveResult{}, err
	}
	out := SolveResult{Status: res.Status, Cost: res.Cost, Solves: res.Solves}
	if res.Model != nil {
		plan, err := f.ExtractPlan(res.Model)
		if err != nil {
			return out, err
		}
		out.Plan = plan
	}
	return out, nil
}

// ExtractPlan converts a satisfying model into an executable plan.
func (f *Formulation) ExtractPlan(model []bool) (*sched.Plan, error) {
	val := func(l Lit) bool {
		v := model[l.Var()]
		if l < 0 {
			return !v
		}
		return v
	}
	N := f.n
	plan := &sched.Plan{}
	for t := 1; t <= N; t++ {
		// Transfers and frees between step t-1 and step t.
		for j := range f.bufs {
			if val(f.copyC[[2]int{j, t}]) {
				plan.Steps = append(plan.Steps, sched.Step{Kind: sched.StepD2H, Buf: f.bufs[j]})
			}
		}
		for j := range f.bufs {
			if val(f.g[[2]int{j, t - 1}]) && !val(f.g[[2]int{j, t}]) {
				plan.Steps = append(plan.Steps, sched.Step{Kind: sched.StepFree, Buf: f.bufs[j]})
			}
		}
		for j := range f.bufs {
			if val(f.copyG[[2]int{j, t}]) {
				plan.Steps = append(plan.Steps, sched.Step{Kind: sched.StepH2D, Buf: f.bufs[j]})
			}
		}
		var node *graph.Node
		for i := 0; i < N; i++ {
			if val(f.x[[2]int{i, t}]) {
				if node != nil {
					return nil, fmt.Errorf("pb: two operators at step %d", t)
				}
				node = f.nodes[i]
			}
		}
		if node == nil {
			return nil, fmt.Errorf("pb: no operator at step %d", t)
		}
		plan.Order = append(plan.Order, node)
		plan.Steps = append(plan.Steps, sched.Step{Kind: sched.StepLaunch, Node: node})
		plan.Steps = append(plan.Steps, sched.Step{Kind: sched.StepSync})

		var resident int64
		for j, b := range f.bufs {
			if val(f.g[[2]int{j, t}]) {
				resident += b.Size()
			}
		}
		if resident > plan.PeakFloats {
			plan.PeakFloats = resident
		}
	}
	// Final drain.
	for j := range f.bufs {
		if val(f.copyC[[2]int{j, N + 1}]) {
			plan.Steps = append(plan.Steps, sched.Step{Kind: sched.StepD2H, Buf: f.bufs[j]})
		}
	}
	for j := range f.bufs {
		if val(f.g[[2]int{j, N}]) {
			plan.Steps = append(plan.Steps, sched.Step{Kind: sched.StepFree, Buf: f.bufs[j]})
		}
	}
	return plan, nil
}
