package ops

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/tensor"
)

// elementwise is the common implementation of data-parallel operators: n
// equal-shaped inputs, one equal-shaped output, a per-element function.
// Data-parallel operators are the easy split target the paper mentions:
// any output region needs exactly the matching input regions.
type elementwise struct {
	schedulable
	kind  string
	nIn   int
	flops int64 // FLOPs per output element
	fn    func(vals []float32) float32
	// params canonically encodes the constants baked into fn (remap
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

// Params implements graph.OpParams.
func (e *elementwise) Params() string { return e.params }

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
		buf := make([]float32, len(in))
		rows := make([][]float32, len(in))
		for r := r0; r < r1; r++ {
			orow := out.Row(r)
			for i, t := range in {
				rows[i] = t.Row(r)
			}
			for c := range orow {
				for i := range rows {
					buf[i] = rows[i][c]
				}
				orow[c] = e.fn(buf)
			}
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
	return &elementwise{kind: "max", nIn: n, flops: int64(n - 1), params: fmt.Sprintf("n=%d", n), fn: func(v []float32) float32 {
		m := v[0]
		for _, x := range v[1:] {
			if x > m {
				m = x
			}
		}
		return m
	}}
}

// NewAbsMaxCombine combines edge responses by maximum absolute value, one
// of the Combine_op choices in the find_edges template.
func NewAbsMaxCombine(n int) graph.Operator {
	if n < 1 {
		panic("ops: absmax combine needs at least one input")
	}
	return &elementwise{kind: "absmax", nIn: n, flops: int64(2 * n), params: fmt.Sprintf("n=%d", n), fn: func(v []float32) float32 {
		m := float32(math.Abs(float64(v[0])))
		for _, x := range v[1:] {
			if a := float32(math.Abs(float64(x))); a > m {
				m = a
			}
		}
		return m
	}}
}

// NewAddN returns elementwise addition over n inputs (the A operators of
// the CNN layer transformation in Fig. 7).
func NewAddN(n int) graph.Operator {
	if n < 1 {
		panic("ops: add needs at least one input")
	}
	return &elementwise{kind: "add", nIn: n, flops: int64(n - 1), params: fmt.Sprintf("n=%d", n), fn: func(v []float32) float32 {
		var s float32
		for _, x := range v {
			s += x
		}
		return s
	}}
}

// NewTanh returns the elementwise tanh nonlinearity used by the CNN
// template's tanh layers.
func NewTanh() graph.Operator {
	return &elementwise{kind: "tanh", nIn: 1, flops: 8, fn: func(v []float32) float32 {
		return float32(math.Tanh(float64(v[0])))
	}}
}

// NewRemap returns the remap operator (R in Fig. 1(b)): an elementwise
// nonlinear re-mapping of an edge response. The mapping is the affine
// clamp remap(x) = clamp(scale*x + offset, lo, hi), which is statically
// defined and cheap, matching the paper's use of remaps as inexpensive
// substitutes for some rotated convolutions.
func NewRemap(scale, offset, lo, hi float32) graph.Operator {
	return &elementwise{kind: "remap", nIn: 1, flops: 4,
		params: fmt.Sprintf("scale=%g,offset=%g,lo=%g,hi=%g", scale, offset, lo, hi),
		fn: func(v []float32) float32 {
			x := scale*v[0] + offset
			if x < lo {
				return lo
			}
			if x > hi {
				return hi
			}
			return x
		}}
}

// NewScale returns elementwise multiplication by a constant.
func NewScale(k float32) graph.Operator {
	return &elementwise{kind: "scale", nIn: 1, flops: 1, params: fmt.Sprintf("k=%g", k), fn: func(v []float32) float32 {
		return k * v[0]
	}}
}

// NewCopy returns the identity operator; useful in tests and as a
// materialization point.
func NewCopy() graph.Operator {
	return &elementwise{kind: "copy", nIn: 1, flops: 0, fn: func(v []float32) float32 {
		return v[0]
	}}
}

// NewFrontierMask returns the BFS frontier-expansion mask: given
// [candidates, visited], an element becomes 1 where the candidate value
// is positive and the vertex is unvisited (visited == 0), else 0. The
// BFS-levels template composes it with SpMV to advance one level.
func NewFrontierMask() graph.Operator {
	return &elementwise{kind: "frontier", nIn: 2, flops: 2, fn: func(v []float32) float32 {
		if v[0] > 0 && v[1] == 0 {
			return 1
		}
		return 0
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
