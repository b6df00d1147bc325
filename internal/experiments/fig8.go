package experiments

import (
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Fig8Row is one point of Fig. 8: edge-detection execution time versus
// input image dimension on the Tesla C870. Times in simulated seconds;
// -1 marks infeasible (the baseline "stops working before dimension 8000").
type Fig8Row struct {
	ImageDim     int
	Baseline     float64
	Optimized    float64
	BestPossible float64 // infinite-memory single-kernel bound
	// OverBest is Optimized/BestPossible (the paper reports within 20%).
	OverBest float64
}

// Fig8 regenerates the scalability curve of Fig. 8 on the given device
// (the paper uses the Tesla C870 with 16×16 kernels).
func Fig8(dims []int, spec gpu.Spec) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, dim := range dims {
		row := Fig8Row{ImageDim: dim, Baseline: -1}

		g, _, err := paperEdge(dim).Build()
		if err != nil {
			return nil, err
		}
		if _, stats, ok, err := simulateBaseline(g, spec); err != nil {
			return nil, err
		} else if ok {
			row.Baseline = stats.TotalTime()
		}

		_, rep, err := compileAndSimulate(g, spec)
		if err != nil {
			return nil, err
		}
		row.Optimized = rep.Stats.TotalTime()

		row.BestPossible = bestPossible(g, spec)
		row.OverBest = row.Optimized / row.BestPossible
		rows = append(rows, row)
	}
	return rows, nil
}

// bestPossible models the paper's "best possible" configuration: a GPU
// with infinite memory running the whole template as a single fused
// kernel, so only the input image and output edge map cross the bus and
// there is exactly one kernel launch. g is the unsplit template.
func bestPossible(g *graph.Graph, spec gpu.Spec) float64 {
	var inFloats, outFloats, flops int64
	for _, b := range g.InputBuffers() {
		inFloats += b.Size()
	}
	for _, b := range g.OutputBuffers() {
		outFloats += b.Size()
	}
	var clk sched.Clock // the per-launch cost
	for _, n := range g.Nodes {
		f, _, _ := clk.Launch(n)
		flops += f
	}
	st := gpu.Stats{
		TransferTime: spec.H2DDuration(inFloats) + spec.D2HDuration(outFloats),
		ComputeTime:  spec.KernelTime(flops, outFloats, (inFloats+outFloats)*4),
	}
	return st.TotalTime()
}
