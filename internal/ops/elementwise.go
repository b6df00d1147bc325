package ops

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/tensor"
)

// elementwise is the common implementation of data-parallel operators: n
// equal-shaped inputs, one equal-shaped output, and a row kernel that
// writes output row o from row r of every input (o never aliases an
// input). Each row kernel gives every element exactly the float32
// operations, in the order, of a per-element function of its inputs.
// Data-parallel operators are the easy split target the paper mentions:
// any output region needs exactly the matching input regions.
type elementwise struct {
	schedulable
	kind  string
	nIn   int
	flops int64 // FLOPs per output element
	row   func(o []float32, in []*tensor.Tensor, r int)
	// params canonically encodes the constants baked into row (remap
	// bounds, scale factors, input arity) for graph fingerprinting; the
	// closure itself cannot be hashed.
	params string
}

// BindSchedule implements graph.ScheduleBinder.
func (e *elementwise) BindSchedule(s loadbalance.Schedule) graph.Operator {
	e2 := *e
	e2.sched = s
	return &e2
}

func (e *elementwise) Kind() string { return e.kind }

// AppendParams implements graph.OpParams.
func (e *elementwise) AppendParams(dst []byte) []byte { return append(dst, e.params...) }

func (e *elementwise) OutShape(in []graph.Shape) (graph.Shape, error) {
	if err := wantInputs(e.kind, in, e.nIn); err != nil {
		return graph.Shape{}, err
	}
	return sameShapes(e.kind, in)
}

func (e *elementwise) Run(in []*tensor.Tensor, out *tensor.Tensor) error {
	for i, t := range in {
		if t.Rows() != out.Rows() || t.Cols() != out.Cols() {
			return fmt.Errorf("ops: %s input %d shape %v != output %v", e.kind, i, t, out)
		}
	}
	e.rows(out.Rows(), nil, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			e.row(out.Row(r), in, r)
		}
	})
	return nil
}

func (e *elementwise) FLOPs(in []graph.Shape, out graph.Shape) int64 {
	return out.Size() * e.flops
}

// InputRegion implements graph.Splittable: identity mapping for every input.
func (e *elementwise) InputRegion(i int, out graph.Region, in []graph.Region) (graph.Region, bool) {
	return out, false
}

var (
	_ graph.Operator       = (*elementwise)(nil)
	_ graph.Splittable     = (*elementwise)(nil)
	_ graph.ScheduleBinder = (*elementwise)(nil)
)

// NewMaxCombine returns the reduction operator the edge-detection template
// uses to combine edge responses across orientations: elementwise max over
// n inputs.
func NewMaxCombine(n int) graph.Operator {
	if n < 1 {
		panic("ops: max combine needs at least one input")
	}
	return &elementwise{kind: "max", nIn: n, flops: int64(n - 1), params: fmt.Sprintf("n=%d", n), row: maxRow}
}

// maxRow starts each element at the first input and replaces it by each
// later input that is greater, in input order.
func maxRow(o []float32, in []*tensor.Tensor, r int) {
	copy(o, in[0].Row(r))
	for _, t := range in[1:] {
		x := t.Row(r)[:len(o)]
		for c := range o {
			if x[c] > o[c] {
				o[c] = x[c]
			}
		}
	}
}

// NewAbsMaxCombine combines edge responses by maximum absolute value, one
// of the Combine_op choices in the find_edges template.
func NewAbsMaxCombine(n int) graph.Operator {
	if n < 1 {
		panic("ops: absmax combine needs at least one input")
	}
	return &elementwise{kind: "absmax", nIn: n, flops: int64(2 * n), params: fmt.Sprintf("n=%d", n), row: absMaxRow}
}

// absMaxRow is maxRow over absolute values.
func absMaxRow(o []float32, in []*tensor.Tensor, r int) {
	for c, x := range in[0].Row(r)[:len(o)] {
		o[c] = float32(math.Abs(float64(x)))
	}
	for _, t := range in[1:] {
		x := t.Row(r)[:len(o)]
		for c := range o {
			if a := float32(math.Abs(float64(x[c]))); a > o[c] {
				o[c] = a
			}
		}
	}
}

// NewAddN returns elementwise addition over n inputs (the A operators of
// the CNN layer transformation in Fig. 7).
func NewAddN(n int) graph.Operator {
	if n < 1 {
		panic("ops: add needs at least one input")
	}
	return &elementwise{kind: "add", nIn: n, flops: int64(n - 1), params: fmt.Sprintf("n=%d", n), row: addRow}
}

// addRow sums the inputs in order into an accumulator that starts at +0,
// so that, like the per-element sum it replaces, -0 + -0 yields +0. Two
// inputs, the arity of every add in the CNN templates, take one pass.
func addRow(o []float32, in []*tensor.Tensor, r int) {
	if len(in) == 2 {
		a, b := in[0].Row(r)[:len(o)], in[1].Row(r)[:len(o)]
		for c := range o {
			o[c] = (0 + a[c]) + b[c]
		}
		return
	}
	clear(o)
	for _, t := range in {
		x := t.Row(r)[:len(o)]
		for c := range o {
			o[c] += x[c]
		}
	}
}

// NewTanh returns the elementwise tanh nonlinearity used by the CNN
// template's tanh layers.
func NewTanh() graph.Operator {
	return &elementwise{kind: "tanh", nIn: 1, flops: 8, row: tanhRow}
}

// tanhRow widens eight inputs at a time into a stack array, then calls
// math.Tanh on each: widened in the calling loop, each argument merges
// into the register the previous call returned in, which serializes the
// calls; an argument loaded from memory does not, and runs in half the time.
func tanhRow(o []float32, in []*tensor.Tensor, r int) {
	x := in[0].Row(r)[:len(o)]
	var w [8]float64
	for c0 := 0; c0 < len(o); c0 += len(w) {
		ws := w[:min(len(w), len(o)-c0)]
		for i := range ws {
			ws[i] = float64(x[c0+i])
		}
		for i, v := range ws {
			o[c0+i] = float32(math.Tanh(v))
		}
	}
}

// NewRemap returns the remap operator (R in Fig. 1(b)): an elementwise
// nonlinear re-mapping of an edge response. The mapping is the affine
// clamp remap(x) = clamp(scale*x + offset, lo, hi), which is statically
// defined and cheap, matching the paper's use of remaps as inexpensive
// substitutes for some rotated convolutions.
func NewRemap(scale, offset, lo, hi float32) graph.Operator {
	return &elementwise{kind: "remap", nIn: 1, flops: 4,
		params: fmt.Sprintf("scale=%g,offset=%g,lo=%g,hi=%g", scale, offset, lo, hi),
		row: func(o []float32, in []*tensor.Tensor, r int) {
			for c, v := range in[0].Row(r)[:len(o)] {
				x := scale*v + offset
				if x < lo {
					x = lo
				}
				if x > hi {
					x = hi
				}
				o[c] = x
			}
		}}
}

// NewScale returns elementwise multiplication by a constant.
func NewScale(k float32) graph.Operator {
	return &elementwise{kind: "scale", nIn: 1, flops: 1, params: fmt.Sprintf("k=%g", k), row: func(o []float32, in []*tensor.Tensor, r int) {
		for c, x := range in[0].Row(r)[:len(o)] {
			o[c] = k * x
		}
	}}
}

// NewFrontierMask returns the BFS frontier-expansion mask: given
// [candidates, visited], an element becomes 1 where the candidate value
// is positive and the vertex is unvisited (visited == 0), else 0. The
// BFS-levels template composes it with SpMV to advance one level.
func NewFrontierMask() graph.Operator {
	return &elementwise{kind: "frontier", nIn: 2, flops: 2, row: func(o []float32, in []*tensor.Tensor, r int) {
		cand, visited := in[0].Row(r)[:len(o)], in[1].Row(r)[:len(o)]
		for c := range o {
			o[c] = 0
			if cand[c] > 0 && visited[c] == 0 {
				o[c] = 1
			}
		}
	}}
}

// BiasAdd adds a scalar bias held in a 1×1 buffer to every element of its
// first input (the B inputs of Fig. 7). The bias buffer is replicated on
// split, like a convolution kernel.
type BiasAdd struct {
	schedulable
}

// BindSchedule implements graph.ScheduleBinder.
func (b *BiasAdd) BindSchedule(s loadbalance.Schedule) graph.Operator {
	b2 := *b
	b2.sched = s
	return &b2
}

// NewBiasAdd returns a BiasAdd operator.
func NewBiasAdd() *BiasAdd { return &BiasAdd{} }

// Kind implements graph.Operator.
func (*BiasAdd) Kind() string { return "bias" }

// OutShape implements graph.Operator.
func (b *BiasAdd) OutShape(in []graph.Shape) (graph.Shape, error) {
	if err := wantInputs(b.Kind(), in, 2); err != nil {
		return graph.Shape{}, err
	}
	if in[1] != (graph.Shape{Rows: 1, Cols: 1}) {
		return graph.Shape{}, fmt.Errorf("ops: bias input must be 1x1, got %v", in[1])
	}
	return in[0], nil
}

// Run implements graph.Operator.
func (b *BiasAdd) Run(in []*tensor.Tensor, out *tensor.Tensor) error {
	x, bias := in[0], in[1]
	if bias.Len() != 1 {
		return fmt.Errorf("ops: bias tensor must be 1x1, got %v", bias)
	}
	if x.Rows() != out.Rows() || x.Cols() != out.Cols() {
		return fmt.Errorf("ops: bias input %v != output %v", x, out)
	}
	bv := bias.At(0, 0)
	b.rows(out.Rows(), nil, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			xr, or := x.Row(r), out.Row(r)
			for c := range or {
				or[c] = xr[c] + bv
			}
		}
	})
	return nil
}

// FLOPs implements graph.Operator.
func (*BiasAdd) FLOPs(in []graph.Shape, out graph.Shape) int64 { return out.Size() }

// InputRegion implements graph.Splittable: the data input splits with the
// output; the bias is replicated.
func (*BiasAdd) InputRegion(i int, out graph.Region, in []graph.Region) (graph.Region, bool) {
	if i == 1 {
		return graph.Region{}, true
	}
	return out, false
}

var (
	_ graph.Operator       = (*BiasAdd)(nil)
	_ graph.Splittable     = (*BiasAdd)(nil)
	_ graph.ScheduleBinder = (*BiasAdd)(nil)
)
