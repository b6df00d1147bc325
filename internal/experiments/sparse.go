package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// SparseKernelRow is one point of the schedule comparison on the raw
// SpMV kernel: the same structure and inputs sharded by one of the
// load-balancing schedules. OutputsEqual asserts that the schedule
// changed nothing but how rows are shared among workers.
type SparseKernelRow struct {
	Dist     string // row-degree distribution
	Schedule string // static, mergepath, worksteal
	// ModeledUnits is the bottleneck worker's work (Σ row nnz+1 of its
	// rows) when the schedule shards across a fixed virtual worker pool —
	// the machine-independent load-balance metric.
	ModeledUnits   int64
	ModeledSpeedup float64 // static units / this units
	OutputsEqual   bool
}

// SparseTemplateRow is one end-to-end template run through the full
// service path (compile → split → schedule → execute) under one bound
// schedule, checked bit- and stat-identical against the static run.
type SparseTemplateRow struct {
	Template       string
	Dist           string
	Schedule       string
	ModeledSeconds float64
	OutputsEqual   bool
	StatsEqual     bool
}

// SparseResult aggregates the sparse-domain experiment.
type SparseResult struct {
	N            int
	AvgNNZ       int
	Skew         float64
	PackedFloats int64 // power-law adjacency, packed
	DenseFloats  int64 // the n×n extent it replaces
	Kernel       []SparseKernelRow
	Templates    []SparseTemplateRow
}

// modeledWorkers is the virtual pool width the modeled-makespan metric
// assumes: fixed so the bottleneck units do not depend on the host.
const modeledWorkers = 16

// modeledMakespan returns the bottleneck worker's work units when the
// named schedule shards rows across modeledWorkers workers, with cost
// charged per row. Static and merge-path partition deterministically, so
// their actual range decomposition is recorded; work-stealing's runtime
// assignment is racy, so it is modeled as zero-overhead self-scheduling
// (each chunk, in order, claimed by the earliest-free worker — the
// textbook list-scheduling bound its atomic counter approximates).
func modeledMakespan(name string, rows int, cost loadbalance.CostFn) (int64, error) {
	if name == "worksteal" {
		finish := make([]int64, modeledWorkers)
		for c0 := 0; c0 < rows; c0 += loadbalance.DefaultChunk {
			c1 := c0 + loadbalance.DefaultChunk
			if c1 > rows {
				c1 = rows
			}
			var work int64
			for r := c0; r < c1; r++ {
				work += cost(r)
			}
			minw := 0
			for w := 1; w < modeledWorkers; w++ {
				if finish[w] < finish[minw] {
					minw = w
				}
			}
			finish[minw] += work
		}
		var max int64
		for _, f := range finish {
			if f > max {
				max = f
			}
		}
		return max, nil
	}
	var sched loadbalance.Schedule
	switch name {
	case "static":
		sched = loadbalance.Static{Workers: modeledWorkers}
	case "mergepath":
		sched = loadbalance.MergePath{Workers: modeledWorkers}
	default:
		return 0, fmt.Errorf("sparse: no makespan model for schedule %q", name)
	}
	var mu sync.Mutex
	var max int64
	sched.Run(rows, cost, func(r0, r1 int) {
		var work int64
		for r := r0; r < r1; r++ {
			work += cost(r)
		}
		mu.Lock()
		if work > max {
			max = work
		}
		mu.Unlock()
	})
	return max, nil
}

// Sparse runs the irregular-workload experiment: SpMV over uniform and
// power-law row distributions under the three load-balancing schedules.
//
// The kernel rows run the sharded row loop directly — the component a
// schedule actually changes — and model each schedule's bottleneck
// worker. The template rows then run PageRank and BFS-levels through the
// full service path under each schedule and assert the framework's core
// invariant: bound schedules change host wall time only, never outputs or
// modeled stats.
//
// The matrices have n rows of 48 nonzeros on average, and the templates
// run 10 iterations.
func Sparse(n int) (*SparseResult, error) {
	const avgNNZ, iters, skew = 48, 10, 0.85
	res := &SparseResult{N: n, AvgNNZ: avgNNZ, Skew: skew}

	structures := []struct {
		dist string
		s    *tensor.CSR
	}{
		{"uniform", workload.UniformCSR(2009, n, avgNNZ)},
		{"powerlaw", workload.PowerLawCSR(2009, n, avgNNZ, skew)},
	}
	pl := structures[1].s
	res.PackedFloats = pl.PackedFloats(0, n)
	res.DenseFloats = int64(n) * int64(n)

	// Direct kernel comparison: same dense-A and x buffers, one bound
	// schedule per row, outputs bitwise-compared against static's.
	for _, st := range structures {
		s := st.s
		a := s.Dense()
		x := tensor.New(n, 1)
		x.Fill(1 / float32(n))
		rowCost := func(r int) int64 { return int64(s.RowNNZ(r)) + 1 }
		var staticUnits int64
		var staticOut *tensor.Tensor
		for _, name := range loadbalance.Names() {
			sched, err := loadbalance.ByName(name)
			if err != nil {
				return nil, err
			}
			y := tensor.New(n, 1)
			if err := ops.NewSpMV(s).BindSchedule(sched).Run([]*tensor.Tensor{a, x}, y); err != nil {
				return nil, err
			}
			units, err := modeledMakespan(name, n, rowCost)
			if err != nil {
				return nil, err
			}
			row := SparseKernelRow{Dist: st.dist, Schedule: name, ModeledUnits: units, OutputsEqual: true}
			if name == "static" {
				staticUnits, staticOut = units, y
			} else {
				row.OutputsEqual = y.Equal(staticOut)
			}
			row.ModeledSpeedup = float64(staticUnits) / float64(units)
			if !row.OutputsEqual {
				return nil, fmt.Errorf("sparse: %s/%s output diverged from static", st.dist, name)
			}
			res.Kernel = append(res.Kernel, row)
		}
	}

	// End-to-end template runs: one service per schedule (the schedule is
	// part of the compiled artifact), identical inputs, outputs and
	// modeled stats compared against the static run.
	type build struct {
		template string
		dist     string
		build    func() (*graph.Graph, exec.Inputs, error)
	}
	builds := []build{}
	for _, st := range structures {
		s := st.s
		builds = append(builds,
			build{"PageRank", st.dist, func() (*graph.Graph, exec.Inputs, error) {
				return workload.PageRank(s, iters, true)
			}},
			build{"BFS levels", st.dist, func() (*graph.Graph, exec.Inputs, error) {
				return workload.BFS(s, iters, true)
			}})
	}
	ctx := context.Background()
	for _, b := range builds {
		var staticOut exec.Outputs
		var staticStats gpu.Stats
		for _, name := range loadbalance.Names() {
			g, in, err := b.build()
			if err != nil {
				return nil, err
			}
			svc := core.NewService(core.WithDevice(gpu.TeslaC870()), core.WithSchedule(name))
			compiled, _, err := svc.Compile(ctx, g)
			if err != nil {
				return nil, err
			}
			rep, err := svc.Execute(ctx, compiled, in)
			if err != nil {
				return nil, err
			}
			row := SparseTemplateRow{
				Template: b.template, Dist: b.dist, Schedule: name,
				ModeledSeconds: rep.Stats.TotalTime(),
				OutputsEqual:   true, StatsEqual: true,
			}
			if name == "static" {
				staticOut, staticStats = rep.Outputs, rep.Stats
			} else {
				row.StatsEqual = rep.Stats == staticStats
				for id, out := range rep.Outputs {
					if ref, ok := staticOut[id]; !ok || !out.Equal(ref) {
						row.OutputsEqual = false
					}
				}
				if !row.OutputsEqual || !row.StatsEqual {
					return nil, fmt.Errorf("sparse: %s %s/%s diverged from static (outputs=%t stats=%t)",
						b.template, b.dist, name, row.OutputsEqual, row.StatsEqual)
				}
			}
			res.Templates = append(res.Templates, row)
		}
	}
	return res, nil
}
