package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/ops"
	"repro/internal/templates"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// SparseKernelRow is one point of the schedule comparison on the raw
// SpMV kernel: the same structure and inputs sharded by one of the
// load-balancing schedules, timed on the host. Wall time is the only
// thing a schedule may change; OutputsEqual asserts the rest.
type SparseKernelRow struct {
	Dist     string  `json:"dist"`     // row-degree distribution
	Schedule string  `json:"schedule"` // static, mergepath, worksteal
	WallMS   float64 `json:"wall_ms"`  // best-of-trials kernel time
	Speedup  float64 `json:"speedup"`  // static wall / this wall
	// ModeledUnits is the bottleneck worker's work (Σ row nnz+1 of its
	// rows) when the schedule shards across a fixed virtual worker pool —
	// the machine-independent load-balance metric (wall speedup is bounded
	// by GOMAXPROCS and is flat on a single-core host).
	ModeledUnits   int64   `json:"modeled_units"`
	ModeledSpeedup float64 `json:"modeled_speedup"` // static units / this units
	OutputsEqual   bool    `json:"outputs_equal"`
}

// SparseTemplateRow is one end-to-end template run through the full
// service path (compile → split → schedule → execute) under one bound
// schedule, checked bit- and stat-identical against the static run.
type SparseTemplateRow struct {
	Template       string  `json:"template"`
	Dist           string  `json:"dist"`
	Schedule       string  `json:"schedule"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	OutputsEqual   bool    `json:"outputs_equal"`
	StatsEqual     bool    `json:"stats_equal"`
}

// SparseResult aggregates the sparse-domain experiment.
type SparseResult struct {
	N            int                 `json:"n"`
	AvgNNZ       int                 `json:"avg_nnz"`
	Skew         float64             `json:"skew"`
	Iterations   int                 `json:"iterations"`
	GoMaxProcs   int                 `json:"gomaxprocs"`
	PackedFloats int64               `json:"packed_floats"` // power-law adjacency, packed
	DenseFloats  int64               `json:"dense_floats"`  // the n×n extent it replaces
	Kernel       []SparseKernelRow   `json:"kernel"`
	Templates    []SparseTemplateRow `json:"templates"`
}

// modeledWorkers is the virtual pool width the modeled-makespan metric
// assumes: fixed so BENCH_sparse.json entries compare across machines.
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

// timeSpMV runs the bound SpMV kernel reps times over the same buffers
// and returns the best single-run wall time (best-of minimizes scheduler
// and GC noise, the standard microbenchmark estimator).
func timeSpMV(op graph.Operator, a, x, y *tensor.Tensor, trials, reps int) (float64, error) {
	best := 0.0
	for t := 0; t < trials; t++ {
		start := time.Now()
		for r := 0; r < reps; r++ {
			if err := op.Run([]*tensor.Tensor{a, x}, y); err != nil {
				return 0, err
			}
		}
		ms := float64(time.Since(start).Microseconds()) / 1e3 / float64(reps)
		if t == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

// Sparse runs the irregular-workload experiment: SpMV over uniform and
// power-law row distributions under the three load-balancing schedules.
//
// The kernel rows time the sharded row loop directly — the component a
// schedule actually changes — because end-to-end wall time is dominated
// by input materialization, which is schedule-independent. The template
// rows then run PageRank and BFS-levels through the full service path
// under each schedule and assert the framework's core invariant: bound
// schedules change host wall time only, never outputs or modeled stats.
//
// The matrices have n rows (<= 0 picks 4096; CI passes a small value) of
// 48 nonzeros on average, and the templates run 10 iterations.
func Sparse(n int) (*SparseResult, error) {
	if n <= 0 {
		n = 4096
	}
	const avgNNZ, iters, skew = 48, 10, 0.85
	res := &SparseResult{
		N: n, AvgNNZ: avgNNZ, Skew: skew, Iterations: iters,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

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
		var staticMS float64
		var staticUnits int64
		var staticOut *tensor.Tensor
		for _, name := range loadbalance.Names() {
			sched, err := loadbalance.ByName(name)
			if err != nil {
				return nil, err
			}
			op := ops.NewSpMV(s).BindSchedule(sched)
			y := tensor.New(n, 1)
			ms, err := timeSpMV(op, a, x, y, 5, 40)
			if err != nil {
				return nil, err
			}
			units, err := modeledMakespan(name, n, rowCost)
			if err != nil {
				return nil, err
			}
			row := SparseKernelRow{
				Dist: st.dist, Schedule: name, WallMS: ms,
				ModeledUnits: units, OutputsEqual: true,
			}
			if name == "static" {
				staticMS, staticUnits, staticOut = ms, units, y
			} else {
				row.OutputsEqual = y.Equal(staticOut)
			}
			row.Speedup = staticMS / ms
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
		graph    func() (*graph.Graph, *templates.SparseBuffers, error)
		inputs   func(*templates.SparseBuffers) exec.Inputs
	}
	builds := []build{}
	for _, st := range structures {
		s := st.s
		builds = append(builds,
			build{
				template: "PageRank", dist: st.dist,
				graph: func() (*graph.Graph, *templates.SparseBuffers, error) {
					return templates.PageRank(templates.SparseConfig{Structure: s, Iterations: iters})
				},
				inputs: func(b *templates.SparseBuffers) exec.Inputs { return workload.PageRankInputs(b, s) },
			},
			build{
				template: "BFS levels", dist: st.dist,
				graph: func() (*graph.Graph, *templates.SparseBuffers, error) {
					return templates.BFSLevels(templates.SparseConfig{Structure: s, Iterations: iters})
				},
				inputs: func(b *templates.SparseBuffers) exec.Inputs { return workload.BFSInputs(b, s, 0) },
			})
	}
	ctx := context.Background()
	for _, b := range builds {
		var staticOut exec.Outputs
		var staticStats gpu.Stats
		for _, name := range loadbalance.Names() {
			g, bufs, err := b.graph()
			if err != nil {
				return nil, err
			}
			svc := core.NewService(core.WithDevice(gpu.TeslaC870()), core.WithSchedule(name))
			compiled, _, err := svc.Compile(ctx, g)
			if err != nil {
				return nil, err
			}
			rep, err := svc.Execute(ctx, compiled, b.inputs(bufs))
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
