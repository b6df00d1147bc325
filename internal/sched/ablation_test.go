package sched_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/templates"
)

// The scheduling ablations of DESIGN.md §5. Their subjects other than the
// depth-first heuristic (the BFS, random and greedy orders) are test
// code of this package.

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
// against FIFO. The depth-first order rarely pressures eviction
// (that is the point of it), so the comparison runs on the BFS order,
// where the policies genuinely differ.
func BenchmarkAblationEviction(b *testing.B) {
	cfgP, capacity := ablationGraph(b)
	for _, tc := range []struct {
		name string
		pol  sched.EvictPolicy
	}{{"belady", sched.Belady}, {"fifo", sched.FIFO}} {
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
