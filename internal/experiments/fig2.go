package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
)

// Fig2Row is one bar of Fig. 2: the breakdown of execution time into
// CPU-GPU data transfer and GPU computation for an image convolution with
// the given kernel size.
type Fig2Row struct {
	KernelSize    int
	TransferShare float64 // fraction of total time spent in DMA
	ComputeShare  float64
	TotalSeconds  float64
}

// Fig2 reproduces the Fig. 2 experiment: convolve an imageDim×imageDim
// image with kernels of each given size on the target device, per-operator
// transfers (the baseline pattern the figure's measurement used), and
// report the transfer/compute time split. The paper's 8000×8000 sweep over
// kernels 2..20 shows the transfer share falling from ~75% to ~30%.
func Fig2(imageDim int, kernelSizes []int, spec gpu.Spec) ([]Fig2Row, error) {
	var rows []Fig2Row
	for _, k := range kernelSizes {
		g := graph.New()
		img := g.NewBuffer("Img", graph.Shape{Rows: imageDim, Cols: imageDim})
		img.IsInput = true
		ker := g.NewBuffer("K", graph.Shape{Rows: k, Cols: k})
		ker.IsInput = true
		out := g.NewBuffer("Out", graph.Shape{Rows: imageDim, Cols: imageDim})
		out.IsOutput = true
		g.MustAddNode("conv", ops.NewConv2DSame(k, k),
			[]graph.Arg{graph.SingleArg(img), graph.SingleArg(ker)}, graph.SingleArg(out))

		c, err := compile(g, spec, core.WithPlanner(core.BaselinePlanner))
		if err != nil {
			return nil, err
		}
		rep, err := c.Simulate(context.Background())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig2Row{
			KernelSize:    k,
			TransferShare: rep.Stats.TransferShare(),
			ComputeShare:  1 - rep.Stats.TransferShare(),
			TotalSeconds:  rep.Stats.TotalTime(),
		})
	}
	return rows, nil
}
