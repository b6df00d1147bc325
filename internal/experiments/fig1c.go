package experiments

import (
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/split"
)

// Fig1cRow is one point of Fig. 1(c): the memory requirements of the edge
// detection operators as a function of input image size, plus the
// execution strategy the framework must use on the target device.
type Fig1cRow struct {
	ImageDim    int
	ImageMB     float64
	ConvOpMB    float64 // footprint of C1-C4 / R1-R4 class operators
	MaxOpMB     float64 // footprint of the max operator
	Strategy    string  // which Fig. 1(c) region the size falls in
	SplitNodes  int     // operators the split pass had to split
	MaxParts    int     // parts created
	InputSplits bool    // the input image itself had to be chunked
}

// Fig1c computes the memory-requirement curve and region boundaries of
// Fig. 1(c) for the given image dimensions on the target device (the
// paper uses the Tesla C870). Strategies, in increasing image size:
//
//	all-fit          — all data structures fit in GPU memory
//	max-separate     — the algorithm must run in parts but each operator fits
//	split-max        — the max operator must be split
//	split-convs      — the convolutions/remaps must be split too
//	split-input      — even the input image exceeds GPU memory
func Fig1c(dims []int, spec gpu.Spec) ([]Fig1cRow, error) {
	capacity := spec.PlannerCapacity()
	var rows []Fig1cRow
	for _, dim := range dims {
		g, _, err := paperEdge(dim).Build()
		if err != nil {
			return nil, err
		}
		imgFloats := int64(dim) * int64(dim)
		stats := g.Stats()

		var convFP, maxFP int64
		for _, n := range g.Nodes {
			fp := n.Footprint()
			switch n.Op.Kind() {
			case "max":
				maxFP = fp
			default:
				if fp > convFP {
					convFP = fp
				}
			}
		}

		row := Fig1cRow{
			ImageDim: dim,
			ImageMB:  float64(imgFloats * 4 / (1 << 20)),
			ConvOpMB: float64(convFP * 4 / (1 << 20)),
			MaxOpMB:  float64(maxFP * 4 / (1 << 20)),
		}
		switch {
		case stats.TotalFloats <= capacity:
			row.Strategy = "all-fit"
		case maxFP <= capacity && convFP <= capacity:
			row.Strategy = "max-separate"
		case maxFP > capacity && convFP <= capacity:
			row.Strategy = "split-max"
		case imgFloats <= capacity:
			row.Strategy = "split-convs"
		default:
			row.Strategy = "split-input"
		}

		res, err := split.Apply(g, split.Options{Capacity: capacity})
		if err != nil {
			return nil, err
		}
		row.SplitNodes = res.SplitNodes
		row.MaxParts = res.PartsCreated
		row.InputSplits = inputWasChunked(g)
		rows = append(rows, row)
	}
	return rows, nil
}

// inputWasChunked reports whether any template-input root is referenced
// only through proper sub-regions (the image had to be processed in
// chunks).
func inputWasChunked(g *graph.Graph) bool {
	whole := map[int]bool{}
	partial := map[int]bool{}
	for _, b := range g.LiveBuffers() {
		if !b.Root.IsInput {
			continue
		}
		if b.IsRoot() {
			whole[b.Root.ID] = true
		} else {
			partial[b.Root.ID] = true
		}
	}
	for id := range partial {
		if !whole[id] {
			return true
		}
	}
	return false
}
