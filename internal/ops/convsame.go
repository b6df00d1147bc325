package ops

import (
	"fmt"
	"strconv"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/tensor"
)

// Conv2DSame is a zero-padded 2-D convolution whose output has the same
// shape as its image input; this is the convolution the edge-detection
// template uses (the paper's Table 1 counts every edge map at exactly the
// input-image size). Padding follows the usual centering convention: for a
// Kh×Kw kernel, PadTop = (Kh-1)/2 and PadBottom = Kh-1-PadTop (and
// likewise for columns), so even-sized kernels such as the paper's 16×16
// edge filters pad asymmetrically.
//
// Conv2DSame implements graph.RegionRunner because a part produced by the
// splitting pass must know where its clipped input region sits relative to
// the image boundary to pad correctly.
type Conv2DSame struct {
	schedulable
	Kh, Kw int
}

// BindSchedule implements graph.ScheduleBinder.
func (c *Conv2DSame) BindSchedule(s loadbalance.Schedule) graph.Operator {
	c2 := *c
	c2.sched = s
	return &c2
}

// NewConv2DSame returns a same-size convolution for a kh×kw kernel.
func NewConv2DSame(kh, kw int) *Conv2DSame {
	if kh <= 0 || kw <= 0 {
		panic(fmt.Sprintf("ops: invalid conv kernel %dx%d", kh, kw))
	}
	return &Conv2DSame{Kh: kh, Kw: kw}
}

// PadTop returns the implicit zero rows above the image.
func (c *Conv2DSame) PadTop() int { return (c.Kh - 1) / 2 }

// PadLeft returns the implicit zero columns left of the image.
func (c *Conv2DSame) PadLeft() int { return (c.Kw - 1) / 2 }

// Kind implements graph.Operator.
func (c *Conv2DSame) Kind() string { return "conv2d-same" }

// AppendParams implements graph.OpParams: the kernel dimensions.
func (c *Conv2DSame) AppendParams(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, "kh="...), int64(c.Kh), 10)
	return strconv.AppendInt(append(dst, ",kw="...), int64(c.Kw), 10)
}

// OutShape implements graph.Operator.
func (c *Conv2DSame) OutShape(in []graph.Shape) (graph.Shape, error) {
	if err := wantInputs(c.Kind(), in, 2); err != nil {
		return graph.Shape{}, err
	}
	if in[1].Rows != c.Kh || in[1].Cols != c.Kw {
		return graph.Shape{}, fmt.Errorf("ops: conv2d-same kernel shape %v, operator expects %dx%d",
			in[1], c.Kh, c.Kw)
	}
	return in[0], nil
}

// Run implements graph.Operator for the unsplit (whole-image) case.
func (c *Conv2DSame) Run(in []*tensor.Tensor, out *tensor.Tensor) error {
	full := graph.Region{Rows: out.Rows(), Cols: out.Cols()}
	inRegs := []graph.Region{
		{Rows: in[0].Rows(), Cols: in[0].Cols()},
		{Rows: in[1].Rows(), Cols: in[1].Cols()},
	}
	return c.RunRegion(in, inRegs, out, full)
}

// RunRegion implements graph.RegionRunner: computes output rows/cols
// outReg (root coordinates) from an image tensor covering inRegs[0]. Taps
// that fall outside the provided input region read as zero — correct both
// at the true image boundary and nowhere else, because the splitting rule
// always supplies the full clipped halo.
func (c *Conv2DSame) RunRegion(in []*tensor.Tensor, inRegs []graph.Region, out *tensor.Tensor, outReg graph.Region) error {
	img, ker := in[0], in[1]
	if ker.Rows() != c.Kh || ker.Cols() != c.Kw {
		return fmt.Errorf("ops: conv2d-same kernel tensor %v, want %dx%d", ker, c.Kh, c.Kw)
	}
	if out.Rows() != outReg.Rows || out.Cols() != outReg.Cols {
		return fmt.Errorf("ops: conv2d-same output tensor %v != region %v", out, outReg)
	}
	if img.Rows() != inRegs[0].Rows || img.Cols() != inRegs[0].Cols {
		return fmt.Errorf("ops: conv2d-same image tensor %v != region %v", img, inRegs[0])
	}
	// Output (r, c) sits at root (outReg.Row+r, outReg.Col+c); its first
	// tap reads root (…−PadTop, …−PadLeft), i.e. image-tensor index
	// (r+dr, c+dc).
	dr := outReg.Row - c.PadTop() - inRegs[0].Row
	dc := outReg.Col - c.PadLeft() - inRegs[0].Col
	c.rows(out.Rows(), nil, func(r0, r1 int) { convRows(img, ker, out, dr, dc, r0, r1) })
	return nil
}

// FLOPs implements graph.Operator.
func (c *Conv2DSame) FLOPs(in []graph.Shape, out graph.Shape) int64 {
	return out.Size() * int64(c.Kh) * int64(c.Kw) * 2
}

// InputRegion implements graph.Splittable: the image region is the output
// region inflated by the pad halo, clipped to the node's input extent;
// the kernel is replicated.
func (c *Conv2DSame) InputRegion(i int, out graph.Region, in []graph.Region) (graph.Region, bool) {
	if i == 1 {
		return graph.Region{}, true
	}
	pt, pl := c.PadTop(), c.PadLeft()
	r0 := out.Row - pt
	c0 := out.Col - pl
	r1 := out.Row + out.Rows + (c.Kh - 1 - pt)
	c1 := out.Col + out.Cols + (c.Kw - 1 - pl)
	bound := in[0]
	r0 = max(r0, bound.Row)
	c0 = max(c0, bound.Col)
	r1 = min(r1, bound.Row+bound.Rows)
	c1 = min(c1, bound.Col+bound.Cols)
	return graph.Region{Row: r0, Col: c0, Rows: r1 - r0, Cols: c1 - c0}, false
}

// ValidateRegions implements graph.RegionValidator: a node (whole or split
// part) must read an image region that covers its output region and lies
// within the halo-inflated extent, and must read a whole kernel of the
// configured size.
func (c *Conv2DSame) ValidateRegions(in []graph.Region, out graph.Region) error {
	if len(in) != 2 {
		return fmt.Errorf("ops: conv2d-same wants 2 inputs, got %d", len(in))
	}
	if in[1].Rows != c.Kh || in[1].Cols != c.Kw {
		return fmt.Errorf("ops: conv2d-same kernel region %v, want %dx%d", in[1], c.Kh, c.Kw)
	}
	img := in[0]
	if !img.Contains(out) && !(img.Row <= out.Row && img.Col <= out.Col) {
		return fmt.Errorf("ops: conv2d-same image region %v does not cover output %v", img, out)
	}
	pt, pl := c.PadTop(), c.PadLeft()
	inflR0 := out.Row - pt
	inflC0 := out.Col - pl
	inflR1 := out.Row + out.Rows + (c.Kh - 1 - pt)
	inflC1 := out.Col + out.Cols + (c.Kw - 1 - pl)
	if img.Row < inflR0 || img.Col < inflC0 ||
		img.Row+img.Rows > inflR1 || img.Col+img.Cols > inflC1 {
		return fmt.Errorf("ops: conv2d-same image region %v outside halo extent of output %v", img, out)
	}
	if img.Row > out.Row || img.Col > out.Col ||
		img.Row+img.Rows < out.Row+out.Rows || img.Col+img.Cols < out.Col+out.Cols {
		return fmt.Errorf("ops: conv2d-same image region %v smaller than output %v", img, out)
	}
	return nil
}

var (
	_ graph.Operator        = (*Conv2DSame)(nil)
	_ graph.Splittable      = (*Conv2DSame)(nil)
	_ graph.RegionRunner    = (*Conv2DSame)(nil)
	_ graph.RegionValidator = (*Conv2DSame)(nil)
	_ graph.ScheduleBinder  = (*Conv2DSame)(nil)
)
