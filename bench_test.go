// Benchmark harness: one benchmark per paper table and figure (see
// DESIGN.md §4 for the experiment index) plus the ablations of §5.
// Reported custom metrics carry the experiment's headline quantity
// (floats transferred, simulated seconds, speedups) so `go test -bench`
// regenerates the paper's numbers alongside wall-clock costs.
package repro

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/pb"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/templates"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// BenchmarkTable1 regenerates Table 1 (transfer-volume reduction) across
// all eight paper workloads, reporting the optimized C870 volume.
func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1(experiments.PaperWorkloads())
		if err != nil {
			b.Fatal(err)
		}
	}
	var total int64
	for _, r := range rows {
		total += r.OptC870
	}
	b.ReportMetric(float64(total), "optimized-floats-C870")
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkTable2 regenerates Table 2 (execution-time improvement),
// reporting the geometric-mean speedup on the C870.
func BenchmarkTable2(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(experiments.PaperWorkloads())
		if err != nil {
			b.Fatal(err)
		}
	}
	prod, n := 1.0, 0
	for _, r := range rows {
		if r.SpeedupC870 > 0 {
			prod *= r.SpeedupC870
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(math.Pow(prod, 1/float64(n)), "geomean-speedup-C870")
	}
}

// BenchmarkFig1c regenerates the Fig. 1(c) memory-requirement regions.
func BenchmarkFig1c(b *testing.B) {
	dims := []int{1000, 4000, 8000, 9000, 12000, 15000, 20000, 25000}
	var rows []experiments.Fig1cRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig1c(dims, gpu.TeslaC870())
		if err != nil {
			b.Fatal(err)
		}
	}
	splitAt := 0
	for _, r := range rows {
		if r.SplitNodes > 0 && splitAt == 0 {
			splitAt = r.ImageDim
		}
	}
	b.ReportMetric(float64(splitAt), "first-split-dim")
}

// BenchmarkFig2 regenerates the Fig. 2 transfer/compute breakdown,
// reporting the transfer share at the two endpoints of the kernel sweep.
func BenchmarkFig2(b *testing.B) {
	ks := []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	var rows []experiments.Fig2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig2(8000, ks, gpu.TeslaC870())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].TransferShare*100, "transfer%-k2")
	b.ReportMetric(rows[len(rows)-1].TransferShare*100, "transfer%-k20")
}

// BenchmarkFig3 regenerates the schedule-comparison illustration,
// reporting the two schedules' transfer units at 4-unit capacity.
func BenchmarkFig3(b *testing.B) {
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig3(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Policy == "latest-time-of-use" && r.Feasible {
			name := "units-depth-first"
			if r.Schedule[1] == 'a' {
				name = "units-breadth"
			}
			b.ReportMetric(float64(r.Units), name)
		}
	}
}

// BenchmarkFig6 solves the pseudo-Boolean formulation to optimality for
// the Fig. 3 template (the paper's Fig. 6 schedule).
func BenchmarkFig6(b *testing.B) {
	var res *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig6(4, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != pb.Sat {
			b.Fatalf("status %v", res.Status)
		}
	}
	b.ReportMetric(float64(res.OptimalUnits), "optimal-units")
}

// BenchmarkFig8 regenerates the scalability sweep, reporting how far the
// optimized plan is from the best-possible bound at the largest size.
func BenchmarkFig8(b *testing.B) {
	dims := []int{1000, 2000, 4000, 8000, 10000}
	var rows []experiments.Fig8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig8(dims, gpu.TeslaC870())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.OverBest, "opt/best-at-10000")
	b.ReportMetric(last.Optimized, "optimized-sec-at-10000")
}

// --- Ablations (DESIGN.md §5) ---

// ablationGraph builds a split edge template whose scheduling is
// memory-pressured, for the order/eviction/eager ablations.
func ablationGraph(b *testing.B) (*templates.EdgeConfig, int64) {
	cfg := &templates.EdgeConfig{ImageH: 2000, ImageW: 2000, KernelSize: 16, Orientations: 4}
	capacity := int64(3_000_000) // deep splits: chunk-wise DFS shines
	return cfg, capacity
}

// BenchmarkAblationOperatorOrder compares the depth-first heuristic
// against BFS and random topological orders under the same Belady
// transfer scheduler.
func BenchmarkAblationOperatorOrder(b *testing.B) {
	cfgP, capacity := ablationGraph(b)
	for _, tc := range []string{"dfs", "greedy-memory-aware", "bfs", "random"} {
		b.Run(tc, func(b *testing.B) {
			var floats int64
			for i := 0; i < b.N; i++ {
				g, _, err := templates.EdgeDetect(*cfgP)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
					b.Fatal(err)
				}
				var order []*graph.Node
				switch tc {
				case "dfs":
					order, err = sched.DepthFirstOrder(g)
				case "greedy-memory-aware":
					order, err = sched.GreedyMemoryAwareOrder(g)
				case "bfs":
					order, err = sched.BFSOrder(g)
				default:
					order, err = sched.RandomTopoOrder(g, int64(i))
				}
				if err != nil {
					b.Fatal(err)
				}
				plan, err := sched.ScheduleTransfers(g, order, sched.Options{Capacity: capacity})
				if err != nil {
					b.Fatal(err)
				}
				floats = plan.TotalTransferFloats()
			}
			b.ReportMetric(float64(floats), "floats")
		})
	}
}

// BenchmarkAblationEviction compares the latest-time-of-use policy
// against LRU and FIFO. The depth-first order rarely pressures eviction
// (that is the point of it), so the comparison runs on the BFS order,
// where the policies genuinely differ.
func BenchmarkAblationEviction(b *testing.B) {
	cfgP, capacity := ablationGraph(b)
	for _, tc := range []struct {
		name string
		pol  sched.EvictPolicy
	}{{"belady", sched.Belady}, {"lru", sched.LRU}, {"fifo", sched.FIFO}} {
		b.Run(tc.name, func(b *testing.B) {
			var floats int64
			for i := 0; i < b.N; i++ {
				g, _, err := templates.EdgeDetect(*cfgP)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
					b.Fatal(err)
				}
				order, err := sched.BFSOrder(g)
				if err != nil {
					b.Fatal(err)
				}
				plan, err := sched.ScheduleTransfers(g, order,
					sched.Options{Capacity: capacity, Policy: tc.pol})
				if err != nil {
					b.Fatal(err)
				}
				floats = plan.TotalTransferFloats()
			}
			b.ReportMetric(float64(floats), "floats")
		})
	}
}

// BenchmarkAblationEagerFree quantifies the paper's "remove data eagerly"
// rule by disabling it. Because dead buffers are preferentially evicted
// anyway, the transfer volume is unchanged; the benefit shows up as lower
// peak device residency, which is what the metric reports.
func BenchmarkAblationEagerFree(b *testing.B) {
	cfgP, capacity := ablationGraph(b)
	for _, tc := range []struct {
		name    string
		noEager bool
	}{{"eager", false}, {"no-eager", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var floats, peak int64
			for i := 0; i < b.N; i++ {
				g, _, err := templates.EdgeDetect(*cfgP)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
					b.Fatal(err)
				}
				order, err := sched.DepthFirstOrder(g)
				if err != nil {
					b.Fatal(err)
				}
				plan, err := sched.ScheduleTransfers(g, order,
					sched.Options{Capacity: capacity, NoEagerFree: tc.noEager})
				if err != nil {
					b.Fatal(err)
				}
				floats = plan.TotalTransferFloats()
				peak = plan.PeakFloats
			}
			b.ReportMetric(float64(floats), "floats")
			b.ReportMetric(float64(peak), "peak-floats")
		})
	}
}

// BenchmarkAblationGranularity spans the offload-unit granularity
// spectrum on the Fig. 8 workload at dimension 4000: no device
// persistence (baseline), per-operator offload units (the paper), and the
// fully-fused single-kernel bound.
func BenchmarkAblationGranularity(b *testing.B) {
	const dim = 4000
	spec := gpu.TeslaC870()
	run := func(b *testing.B, f func() (float64, error)) {
		var secs float64
		for i := 0; i < b.N; i++ {
			var err error
			secs, err = f()
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(secs, "sim-seconds")
	}
	b.Run("no-persistence", func(b *testing.B) {
		run(b, func() (float64, error) {
			rows, err := experiments.Fig8([]int{dim}, spec)
			if err != nil {
				return 0, err
			}
			return rows[0].Baseline, nil
		})
	})
	b.Run("per-operator", func(b *testing.B) {
		run(b, func() (float64, error) {
			rows, err := experiments.Fig8([]int{dim}, spec)
			if err != nil {
				return 0, err
			}
			return rows[0].Optimized, nil
		})
	})
	// The edge template has no fusable linear chains, so the fused-unit
	// rows use the small CNN (whose add→tanh→subsample chains fuse),
	// comparing per-operator against fused offload units.
	cnnTime := func(fused bool) (float64, error) {
		g, _, err := templates.CNN(templates.SmallCNN(640, 480))
		if err != nil {
			return 0, err
		}
		capacity := spec.PlannerCapacity()
		if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
			return 0, err
		}
		var plan *sched.Plan
		if fused {
			plan, err = sched.FusedHeuristic(g, capacity, 0)
		} else {
			plan, err = sched.Heuristic(g, capacity)
		}
		if err != nil {
			return 0, err
		}
		rep, err := exec.Run(context.Background(), g, plan, nil, exec.Options{Mode: exec.Accounting, Device: gpu.New(spec)})
		if err != nil {
			return 0, err
		}
		return rep.Stats.TotalTime(), nil
	}
	b.Run("cnn-per-operator", func(b *testing.B) {
		run(b, func() (float64, error) { return cnnTime(false) })
	})
	b.Run("cnn-fused-units", func(b *testing.B) {
		run(b, func() (float64, error) { return cnnTime(true) })
	})
	b.Run("fully-fused-bound", func(b *testing.B) {
		run(b, func() (float64, error) {
			rows, err := experiments.Fig8([]int{dim}, spec)
			if err != nil {
				return 0, err
			}
			return rows[0].BestPossible, nil
		})
	})
}

// BenchmarkAblationPBvsHeuristic times the exact PB optimization against
// the scalable heuristic on the Fig. 3 instance.
func BenchmarkAblationPBvsHeuristic(b *testing.B) {
	b.Run("heuristic", func(b *testing.B) {
		var cost int64
		for i := 0; i < b.N; i++ {
			g, err := templates.EdgeDetectFig3(1)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := sched.Heuristic(g, 4)
			if err != nil {
				b.Fatal(err)
			}
			cost = plan.TotalTransferFloats()
		}
		b.ReportMetric(float64(cost), "units")
	})
	b.Run("pb-optimal", func(b *testing.B) {
		var cost int64
		for i := 0; i < b.N; i++ {
			res, err := experiments.Fig6(4, 0)
			if err != nil {
				b.Fatal(err)
			}
			cost = res.OptimalUnits
		}
		b.ReportMetric(float64(cost), "units")
	})
}

// BenchmarkAblationAutoTune measures the split-depth auto-tuning
// extension on a size where the plain heuristic spills intermediates.
func BenchmarkAblationAutoTune(b *testing.B) {
	build := func(b *testing.B, autotune bool) {
		var floats int64
		for i := 0; i < b.N; i++ {
			g, _, err := templates.EdgeDetect(templates.EdgeConfig{
				ImageH: 12000, ImageW: 12000, KernelSize: 16, Orientations: 4})
			if err != nil {
				b.Fatal(err)
			}
			eng := core.NewEngine(core.Config{Device: gpu.TeslaC870(), AutoTuneSplit: autotune})
			c, err := eng.Compile(context.Background(), g)
			if err != nil {
				b.Fatal(err)
			}
			floats = c.TransferFloats()
		}
		b.ReportMetric(float64(floats), "floats")
	}
	b.Run("plain", func(b *testing.B) { build(b, false) })
	b.Run("auto-tuned", func(b *testing.B) { build(b, true) })
}

// BenchmarkAblationSeparableConv compares the full K×K convolution
// against the two-pass separable variant on the edge template (an
// operator-library optimization: 2K taps instead of K²).
func BenchmarkAblationSeparableConv(b *testing.B) {
	spec := gpu.TeslaC870()
	run := func(b *testing.B, separable bool) {
		var secs float64
		for i := 0; i < b.N; i++ {
			g, _, err := templates.EdgeDetect(templates.EdgeConfig{
				ImageH: 4000, ImageW: 4000, KernelSize: 16, Orientations: 4,
				Separable: separable})
			if err != nil {
				b.Fatal(err)
			}
			capacity := spec.PlannerCapacity()
			if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
				b.Fatal(err)
			}
			plan, err := sched.Heuristic(g, capacity)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := exec.Run(context.Background(), g, plan, nil, exec.Options{Mode: exec.Accounting, Device: gpu.New(spec)})
			if err != nil {
				b.Fatal(err)
			}
			secs = rep.Stats.TotalTime()
		}
		b.ReportMetric(secs, "sim-seconds")
	}
	b.Run("full-16x16", func(b *testing.B) { run(b, false) })
	b.Run("separable-16", func(b *testing.B) { run(b, true) })
}

// BenchmarkExtensionOverlap measures the asynchronous transfer/compute
// overlap extension (prefetched plan, two engine timelines) against
// serialized execution on the Tesla C1060 profile.
func BenchmarkExtensionOverlap(b *testing.B) {
	var rows []experiments.OverlapRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Overlap([]int{22000}, gpu.TeslaC1060())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Improvement, "speedup")
	b.ReportMetric(rows[0].AsyncSeconds, "overlapped-sec")
}

// --- Micro-benchmarks of the substrates ---

// BenchmarkConvKernel measures the host execution rate of the convolution
// kernel used in materialized mode.
func BenchmarkConvKernel(b *testing.B) {
	g, bufs, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 512, ImageW: 512, KernelSize: 16, Orientations: 2})
	if err != nil {
		b.Fatal(err)
	}
	in := workload.EdgeInputs(bufs, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunReference(g, in); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(512 * 512 * 4))
}

// BenchmarkSplitPassLargeCNN measures the operator-splitting pass on the
// paper's largest configuration (large CNN at 6400x4800 for the 768 MB
// GeForce).
func BenchmarkSplitPassLargeCNN(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, _, err := templates.CNN(templates.LargeCNN(6400, 4800))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := split.Apply(g, split.Options{Capacity: gpu.GeForce8800GTX().PlannerCapacity()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeuristicPlanLargeCNN measures end-to-end planning (split +
// depth-first order + Belady transfers) at the paper's largest scale.
func BenchmarkHeuristicPlanLargeCNN(b *testing.B) {
	spec := gpu.GeForce8800GTX()
	var floats int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, _, err := templates.CNN(templates.LargeCNN(6400, 4800))
		if err != nil {
			b.Fatal(err)
		}
		capacity := spec.PlannerCapacity()
		if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
			b.Fatal(err)
		}
		plan, err := sched.Heuristic(g, capacity)
		if err != nil {
			b.Fatal(err)
		}
		floats = plan.TotalTransferFloats()
	}
	b.ReportMetric(float64(floats), "floats")
}

// BenchmarkPBSolver measures the pseudo-Boolean solver proving optimality
// on the Fig. 3 instance (631 variables).
func BenchmarkPBSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := templates.EdgeDetectFig3(1)
		if err != nil {
			b.Fatal(err)
		}
		f, err := pb.Formulate(g, 4)
		if err != nil {
			b.Fatal(err)
		}
		res, err := f.Minimize(8, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != pb.Sat || res.Cost != 8 {
			b.Fatalf("unexpected result %+v", res)
		}
	}
}

// BenchmarkExecutorMaterialized measures the simulated-GPU executor with
// real kernels on a split workload.
func BenchmarkExecutorMaterialized(b *testing.B) {
	g, bufs, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 256, ImageW: 256, KernelSize: 8, Orientations: 4})
	if err != nil {
		b.Fatal(err)
	}
	in := workload.EdgeInputs(bufs, 1)
	eng := core.NewEngine(core.Config{Device: gpu.Custom("bench", 512<<10)})
	compiled, err := eng.Compile(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiled.Execute(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorPipelined contrasts sequential and pipelined
// execution of the same materialized prefetched plan. The pipelined side
// overlaps real copy work with real kernel work across host cores;
// results are bit-identical (asserted by internal/exec tests), so the
// interesting number is the wall-clock ratio, which approaches 1.0 on a
// single-core host and grows with available parallelism.
func BenchmarkExecutorPipelined(b *testing.B) {
	g, bufs, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 256, ImageW: 256, KernelSize: 8, Orientations: 4})
	if err != nil {
		b.Fatal(err)
	}
	in := workload.EdgeInputs(bufs, 1)
	spec := gpu.Custom("bench", 512<<10)
	spec.Headroom = 0.7 // fragmentation slack for the prefetch hoist
	capacity := spec.PlannerCapacity()
	if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
		b.Fatal(err)
	}
	plan, err := sched.Heuristic(g, capacity)
	if err != nil {
		b.Fatal(err)
	}
	plan = sched.PrefetchH2D(plan, capacity*9/10)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exec.Run(context.Background(), g, plan, in, exec.Options{
				Mode: exec.Materialized, Device: gpu.New(spec)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exec.Run(context.Background(), g, plan, in, exec.Options{
				Mode: exec.Materialized, Device: gpu.New(spec), Pipeline: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLaunchMaterialized is one materialized exec.Run on the plan the
// repository benchmark's exec_sequential workload runs (Small CNN 160×120,
// 512 KiB arena, headroom 0.7, prefetch hoist): 1 610 launches through
// launchMaterialized, 854 uploads, the free list and the lazily created
// host arrays. -benchmem shows what internal/exec's
// TestMaterializedRunAllocBudget gates.
func BenchmarkLaunchMaterialized(b *testing.B) {
	g, bufs, err := templates.CNN(templates.SmallCNN(160, 120))
	if err != nil {
		b.Fatal(err)
	}
	in := workload.CNNInputs(bufs, 1)
	spec := gpu.Custom("bench-arena", 512<<10)
	spec.Headroom = 0.7
	capacity := spec.PlannerCapacity()
	if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
		b.Fatal(err)
	}
	plan, err := sched.Heuristic(g, capacity)
	if err != nil {
		b.Fatal(err)
	}
	plan = sched.PrefetchH2D(plan, capacity*9/10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(context.Background(), g, plan, in, exec.Options{
			Mode: exec.Materialized, Device: gpu.New(spec)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepDeps measures the hazard-analysis pass that turns a linear
// plan into the pipelined executor's dependency DAG, at paper scale.
func BenchmarkStepDeps(b *testing.B) {
	g, _, err := templates.CNN(templates.LargeCNN(640, 480))
	if err != nil {
		b.Fatal(err)
	}
	capacity := gpu.TeslaC870().PlannerCapacity()
	plan, err := sched.Heuristic(g, capacity)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		d, err := sched.StepDeps(plan)
		if err != nil {
			b.Fatal(err)
		}
		edges = d.Edges
	}
	b.ReportMetric(float64(len(plan.Steps)), "steps")
	b.ReportMetric(float64(edges), "edges")
}

// BenchmarkTensorConv measures the raw host convolution kernel rate
// (materialized-mode execution cost is dominated by it).
func BenchmarkTensorConv(b *testing.B) {
	img := workload.Image(1, 512, 512)
	ker := workload.EdgeKernel(16, 0)
	op := ops.NewConv2DSame(16, 16)
	out := tensor.New(512, 512)
	b.SetBytes(512 * 512 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op.Run([]*tensor.Tensor{img, ker}, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyLargeCNN measures static plan verification at paper
// scale.
func BenchmarkVerifyLargeCNN(b *testing.B) {
	g, _, err := templates.CNN(templates.LargeCNN(640, 480))
	if err != nil {
		b.Fatal(err)
	}
	capacity := gpu.TeslaC870().PlannerCapacity()
	plan, err := sched.Heuristic(g, capacity)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sched.Verify(g, plan, capacity); err != nil {
			b.Fatal(err)
		}
	}
}
