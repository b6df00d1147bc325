package experiments

import (
	"repro/internal/gpu"
	"repro/internal/graph"
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
	dev := gpu.New(spec)
	var inFloats, outFloats int64
	for _, b := range g.InputBuffers() {
		inFloats += b.Size()
	}
	for _, b := range g.OutputBuffers() {
		outFloats += b.Size()
	}
	dev.CopyToDevice(inFloats)
	var flops int64
	for _, n := range g.Nodes {
		inShapes := make([]graph.Shape, len(n.In))
		for i, a := range n.In {
			inShapes[i] = a.Shape()
		}
		flops += n.Op.FLOPs(inShapes, n.Out.Shape())
	}
	dev.Launch(flops, outFloats, (inFloats+outFloats)*4)
	dev.CopyToHost(outFloats)
	return dev.Stats().TotalTime()
}
