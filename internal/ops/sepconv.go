package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/tensor"
)

// SeparableConv2D is a same-size convolution with a rank-1 kernel,
// evaluated as a vertical pass followed by a horizontal pass:
//
//	out = (img ⊛ col) ⊛ rowᵀ
//
// Many practical edge filters (Gaussian derivatives, Sobel) are separable,
// turning an O(K²) kernel into O(2K) work — a classic operator-library
// optimization the recognition templates can opt into. Inputs are
// [image (H×W), col (K×1), row (1×K)]; the output is H×W with the same
// zero-padding convention as Conv2DSame.
type SeparableConv2D struct {
	schedulable
	K int
}

// BindSchedule implements graph.ScheduleBinder.
func (c *SeparableConv2D) BindSchedule(s loadbalance.Schedule) graph.Operator {
	c2 := *c
	c2.sched = s
	return &c2
}

// NewSeparableConv2D returns a separable convolution for a K-tap kernel
// pair.
func NewSeparableConv2D(k int) *SeparableConv2D {
	if k <= 0 {
		panic(fmt.Sprintf("ops: invalid separable kernel size %d", k))
	}
	return &SeparableConv2D{K: k}
}

// Kind implements graph.Operator.
func (c *SeparableConv2D) Kind() string { return "sepconv2d" }

// Params implements graph.OpParams: the tap count.
func (c *SeparableConv2D) Params() string { return fmt.Sprintf("k=%d", c.K) }

// pad returns the leading pad (trailing is K-1-pad).
func (c *SeparableConv2D) pad() int { return (c.K - 1) / 2 }

// OutShape implements graph.Operator.
func (c *SeparableConv2D) OutShape(in []graph.Shape) (graph.Shape, error) {
	if err := wantInputs(c.Kind(), in, 3); err != nil {
		return graph.Shape{}, err
	}
	if in[1] != (graph.Shape{Rows: c.K, Cols: 1}) {
		return graph.Shape{}, fmt.Errorf("ops: sepconv col kernel %v, want %dx1", in[1], c.K)
	}
	if in[2] != (graph.Shape{Rows: 1, Cols: c.K}) {
		return graph.Shape{}, fmt.Errorf("ops: sepconv row kernel %v, want 1x%d", in[2], c.K)
	}
	return in[0], nil
}

// Run implements graph.Operator for the whole-image case.
func (c *SeparableConv2D) Run(in []*tensor.Tensor, out *tensor.Tensor) error {
	inRegs := []graph.Region{
		{Rows: in[0].Rows(), Cols: in[0].Cols()},
		{Rows: c.K, Cols: 1},
		{Rows: 1, Cols: c.K},
	}
	return c.RunRegion(in, inRegs, out, graph.Region{Rows: out.Rows(), Cols: out.Cols()})
}

// RunRegion implements graph.RegionRunner: the vertical pass runs over the
// provided (clipped) input region; the horizontal pass produces the output
// region. Out-of-region taps read zero, which is correct at the true image
// boundary for the same reason as Conv2DSame.
func (c *SeparableConv2D) RunRegion(in []*tensor.Tensor, inRegs []graph.Region, out *tensor.Tensor, outReg graph.Region) error {
	img, col, row := in[0], in[1], in[2]
	if col.Len() != c.K || row.Len() != c.K {
		return fmt.Errorf("ops: sepconv kernels %v/%v, want %d taps each", col, row, c.K)
	}
	p := c.pad()

	// Vertical pass into a scratch the size of the output region but the
	// width of the input region (the horizontal pass still needs the
	// column halo).
	scratch := tensor.New(outReg.Rows, img.Cols())
	dr := outReg.Row - p - inRegs[0].Row
	c.rows(outReg.Rows, nil, func(r0, r1 int) { convRows(img, col, scratch, dr, 0, r0, r1) })
	// Horizontal pass.
	dc := outReg.Col - p - inRegs[0].Col
	c.rows(outReg.Rows, nil, func(r0, r1 int) { convRows(scratch, row, out, 0, dc, r0, r1) })
	return nil
}

// FLOPs implements graph.Operator: 2K multiply-adds per output element
// (versus K² for the non-separable form).
func (c *SeparableConv2D) FLOPs(in []graph.Shape, out graph.Shape) int64 {
	return out.Size() * int64(c.K) * 4
}

// InputRegion implements graph.Splittable: same clipped halo as
// Conv2DSame for the image; both kernel vectors are replicated.
func (c *SeparableConv2D) InputRegion(i int, out graph.Region, in []graph.Region) (graph.Region, bool) {
	if i != 0 {
		return graph.Region{}, true
	}
	p := c.pad()
	r0 := max(out.Row-p, in[0].Row)
	c0 := max(out.Col-p, in[0].Col)
	r1 := min(out.Row+out.Rows+(c.K-1-p), in[0].Row+in[0].Rows)
	c1 := min(out.Col+out.Cols+(c.K-1-p), in[0].Col+in[0].Cols)
	return graph.Region{Row: r0, Col: c0, Rows: r1 - r0, Cols: c1 - c0}, false
}

// ValidateRegions implements graph.RegionValidator (split parts read a
// halo-inflated, clipped region).
func (c *SeparableConv2D) ValidateRegions(in []graph.Region, out graph.Region) error {
	if len(in) != 3 {
		return fmt.Errorf("ops: sepconv wants 3 inputs, got %d", len(in))
	}
	if in[1].Rows != c.K || in[1].Cols != 1 || in[2].Rows != 1 || in[2].Cols != c.K {
		return fmt.Errorf("ops: sepconv kernel regions %v/%v", in[1], in[2])
	}
	img := in[0]
	if img.Row > out.Row || img.Col > out.Col ||
		img.Row+img.Rows < out.Row+out.Rows || img.Col+img.Cols < out.Col+out.Cols {
		return fmt.Errorf("ops: sepconv image region %v smaller than output %v", img, out)
	}
	p := c.pad()
	if img.Row < out.Row-p || img.Col < out.Col-p ||
		img.Row+img.Rows > out.Row+out.Rows+(c.K-1-p) ||
		img.Col+img.Cols > out.Col+out.Cols+(c.K-1-p) {
		return fmt.Errorf("ops: sepconv image region %v outside halo extent of %v", img, out)
	}
	return nil
}

var (
	_ graph.Operator        = (*SeparableConv2D)(nil)
	_ graph.Splittable      = (*SeparableConv2D)(nil)
	_ graph.RegionRunner    = (*SeparableConv2D)(nil)
	_ graph.RegionValidator = (*SeparableConv2D)(nil)
	_ graph.ScheduleBinder  = (*SeparableConv2D)(nil)
)
