// Benchmark harness: one benchmark per paper table and figure (see
// DESIGN.md §4 for the experiment index) plus the ablations of §5 other
// than the scheduling ones, which internal/sched's tests hold.
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
			opts := []core.Option{core.WithDevice(gpu.TeslaC870())}
			if autotune {
				opts = append(opts, core.WithAutoTuneSplit())
			}
			c, _, err := core.NewService(opts...).Compile(context.Background(), g)
			if err != nil {
				b.Fatal(err)
			}
			floats = c.Plan.TotalTransferFloats()
		}
		b.ReportMetric(float64(floats), "floats")
	}
	b.Run("plain", func(b *testing.B) { build(b, false) })
	b.Run("auto-tuned", func(b *testing.B) { build(b, true) })
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

// BenchmarkExecutorMaterialized measures the simulated-GPU executor with
// real kernels on a split workload.
func BenchmarkExecutorMaterialized(b *testing.B) {
	g, bufs, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 256, ImageW: 256, KernelSize: 8, Orientations: 4})
	if err != nil {
		b.Fatal(err)
	}
	in := workload.EdgeInputs(bufs, 1)
	compiled, _, err := core.NewService(core.WithDevice(gpu.Custom("bench", 512<<10))).Compile(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiled.Run(context.Background(), core.RunOptions{Inputs: in}); err != nil {
			b.Fatal(err)
		}
	}
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
