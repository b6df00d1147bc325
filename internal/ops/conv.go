package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/tensor"
)

// Conv2D is a non-separable 2-D "valid" convolution: inputs are
// [image (H×W), kernel (Kh×Kw)] and the output is
// (H−Kh+1)×(W−Kw+1). This is the workhorse of both paper templates (edge
// detection and CNNs).
//
// Conv2D is splittable but, as the paper notes (§3.2), not strictly data
// parallel: computing an output region requires the input region inflated
// by the kernel halo, and the kernel matrix itself must never be split.
type Conv2D struct {
	schedulable
	Kh, Kw int // kernel dims, recorded for shape checking
}

// BindSchedule implements graph.ScheduleBinder.
func (c *Conv2D) BindSchedule(s loadbalance.Schedule) graph.Operator {
	c2 := *c
	c2.sched = s
	return &c2
}

// NewConv2D returns a convolution operator for a kh×kw kernel.
func NewConv2D(kh, kw int) *Conv2D {
	if kh <= 0 || kw <= 0 {
		panic(fmt.Sprintf("ops: invalid conv kernel %dx%d", kh, kw))
	}
	return &Conv2D{Kh: kh, Kw: kw}
}

// Kind implements graph.Operator.
func (c *Conv2D) Kind() string { return "conv2d" }

// Params implements graph.OpParams: the kernel dimensions.
func (c *Conv2D) Params() string { return fmt.Sprintf("kh=%d,kw=%d", c.Kh, c.Kw) }

// OutShape implements graph.Operator.
func (c *Conv2D) OutShape(in []graph.Shape) (graph.Shape, error) {
	if err := wantInputs(c.Kind(), in, 2); err != nil {
		return graph.Shape{}, err
	}
	img, k := in[0], in[1]
	if k.Rows != c.Kh || k.Cols != c.Kw {
		return graph.Shape{}, fmt.Errorf("ops: conv2d kernel shape %v, operator expects %dx%d",
			k, c.Kh, c.Kw)
	}
	if img.Rows < c.Kh || img.Cols < c.Kw {
		return graph.Shape{}, fmt.Errorf("ops: conv2d image %v smaller than kernel %dx%d",
			img, c.Kh, c.Kw)
	}
	return graph.Shape{Rows: img.Rows - c.Kh + 1, Cols: img.Cols - c.Kw + 1}, nil
}

// Run implements graph.Operator.
func (c *Conv2D) Run(in []*tensor.Tensor, out *tensor.Tensor) error {
	img, ker := in[0], in[1]
	if ker.Rows() != c.Kh || ker.Cols() != c.Kw {
		return fmt.Errorf("ops: conv2d kernel tensor %v, want %dx%d", ker, c.Kh, c.Kw)
	}
	oh, ow := out.Rows(), out.Cols()
	if img.Rows() != oh+c.Kh-1 || img.Cols() != ow+c.Kw-1 {
		return fmt.Errorf("ops: conv2d image %v inconsistent with output %v and kernel %dx%d",
			img, out, c.Kh, c.Kw)
	}
	c.rows(oh, nil, func(r0, r1 int) { convRows(img, ker, out, 0, 0, r0, r1) })
	return nil
}

// convRows is the convolution kernel both Conv2D and Conv2DSame run: for
// output rows [r0, r1),
//
//	out[r][c] = Σ ker[kr][kc] · img[r+dr+kr][c+dc+kc]
//
// with taps outside img reading as zero. Each output row is zeroed and
// every tap (kr, kc) is then added into it as one row-axpy, its column
// range clipped once per tap rather than tested per element. Taps are
// applied in ascending (kr, kc) order, so every element sees exactly the
// float32 additions, in the order, of a per-pixel accumulator that starts
// at +0 and skips out-of-image taps: results are bit-identical to that
// loop, and whatever out held before is overwritten.
func convRows(img, ker, out *tensor.Tensor, dr, dc, r0, r1 int) {
	for r := r0; r < r1; r++ {
		orow := out.Row(r)
		clear(orow)
		ir := r + dr
		for kr := max(0, -ir); kr < min(ker.Rows(), img.Rows()-ir); kr++ {
			irow := img.Row(ir + kr)
			for kc, k := range ker.Row(kr) {
				axpyShift(orow, irow, dc+kc, k)
			}
		}
	}
}

// axpyShift adds k·x[c+off] into o[c] for every c whose source index lies
// inside x: one kernel tap applied to a whole output row.
func axpyShift(o, x []float32, off int, k float32) {
	lo, hi := max(0, -off), min(len(o), len(x)-off)
	if lo >= hi {
		return
	}
	o = o[lo:hi]
	x = x[lo+off:][:len(o)]
	for i := range o {
		o[i] += x[i] * k
	}
}

// FLOPs implements graph.Operator: one multiply-add per kernel tap per
// output element.
func (c *Conv2D) FLOPs(in []graph.Shape, out graph.Shape) int64 {
	return out.Size() * int64(c.Kh) * int64(c.Kw) * 2
}

// InputRegion implements graph.Splittable: an output region needs the
// matching input region inflated by the kernel halo (output-root row r
// always reads input-root rows [r, r+Kh)); the kernel matrix is replicated
// (never split).
func (c *Conv2D) InputRegion(i int, out graph.Region, in []graph.Region) (graph.Region, bool) {
	if i == 1 {
		return graph.Region{}, true // kernel: replicate whole
	}
	return graph.Region{
		Row:  out.Row,
		Col:  out.Col,
		Rows: out.Rows + c.Kh - 1,
		Cols: out.Cols + c.Kw - 1,
	}, false
}

var (
	_ graph.Operator       = (*Conv2D)(nil)
	_ graph.Splittable     = (*Conv2D)(nil)
	_ graph.ScheduleBinder = (*Conv2D)(nil)
)
