package sched_test

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/templates"
)

// The scheduling ablations of DESIGN.md §5. Their subjects other than the
// depth-first heuristic (the BFS, random and greedy orders and fused
// offload units) are test code of this package.

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
