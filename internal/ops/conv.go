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
// with taps outside img reading as zero. Each output row is zeroed, its
// kernel rows are clipped against the image once, and each kernel row's
// taps are then added into it four at a time: one streaming pass per
// group of four taps (axpyShift4), and one row-axpy per leftover tap.
// Every element receives the taps in ascending (kr, kc) order, so it sees
// exactly the float32 additions, in the order, of a per-pixel accumulator
// that starts at +0 and skips out-of-image taps: results are bit-identical
// to that loop, and whatever out held before is overwritten.
func convRows(img, ker, out *tensor.Tensor, dr, dc, r0, r1 int) {
	for r := r0; r < r1; r++ {
		orow := out.Row(r)
		clear(orow)
		ir := r + dr
		for kr := max(0, -ir); kr < min(ker.Rows(), img.Rows()-ir); kr++ {
			irow, krow := img.Row(ir+kr), ker.Row(kr)
			kc := 0
			for ; kc+4 <= len(krow); kc += 4 {
				axpyShift4(orow, irow, dc+kc, krow[kc:kc+4])
			}
			for ; kc < len(krow); kc++ {
				axpyShift(orow, irow, dc+kc, krow[kc])
			}
		}
	}
}

// axpyShift4 adds Σ k[t]·x[c+off+t] over t = 0..3 into o[c], taps in
// ascending t, each tap only where its source index lies inside x. The
// columns where all four taps are inside x take one bounds-hoisted pass;
// the few edge columns where some are not take the same taps one by one.
func axpyShift4(o, x []float32, off int, k []float32) {
	k0, k1, k2, k3 := k[0], k[1], k[2], k[3]
	// [lo, hi): every tap inside x; [a0, a1): at least one.
	a0, a1 := max(0, -off-3), min(len(o), len(x)-off)
	lo, hi := max(0, -off), min(len(o), len(x)-off-3)
	if lo >= hi {
		lo, hi = a1, a1
	}
	axpyClipped(o, x, off, k, a0, lo)
	if lo < hi {
		oi := o[lo:hi]
		x0 := x[lo+off:][:len(oi)]
		x1 := x[lo+off+1:][:len(oi)]
		x2 := x[lo+off+2:][:len(oi)]
		x3 := x[lo+off+3:][:len(oi)]
		for i := range oi {
			oi[i] = oi[i] + x0[i]*k0 + x1[i]*k1 + x2[i]*k2 + x3[i]*k3
		}
	}
	axpyClipped(o, x, off, k, hi, a1)
}

// axpyClipped is axpyShift4 for output columns [c0, c1), testing every
// tap's source index.
func axpyClipped(o, x []float32, off int, k []float32, c0, c1 int) {
	for c := c0; c < c1; c++ {
		for t, kt := range k {
			if s := c + off + t; s >= 0 && s < len(x) {
				o[c] += x[s] * kt
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
