package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/tensor"
)

// Subsample is the CNN sub-sampling layer: non-overlapping K×K average
// pooling. Input (H×W) must have H and W divisible by K; the output is
// (H/K)×(W/K).
type Subsample struct {
	schedulable
	K int
}

// BindSchedule implements graph.ScheduleBinder.
func (s *Subsample) BindSchedule(sch loadbalance.Schedule) graph.Operator {
	s2 := *s
	s2.sched = sch
	return &s2
}

// NewSubsample returns a K×K average-pooling operator.
func NewSubsample(k int) *Subsample {
	if k <= 0 {
		panic(fmt.Sprintf("ops: invalid subsample factor %d", k))
	}
	return &Subsample{K: k}
}

// Kind implements graph.Operator.
func (s *Subsample) Kind() string { return "subsample" }

// Params implements graph.OpParams: the pooling factor.
func (s *Subsample) Params() string { return fmt.Sprintf("k=%d", s.K) }

// OutShape implements graph.Operator.
func (s *Subsample) OutShape(in []graph.Shape) (graph.Shape, error) {
	if err := wantInputs(s.Kind(), in, 1); err != nil {
		return graph.Shape{}, err
	}
	if in[0].Rows%s.K != 0 || in[0].Cols%s.K != 0 {
		return graph.Shape{}, fmt.Errorf("ops: subsample input %v not divisible by %d", in[0], s.K)
	}
	return graph.Shape{Rows: in[0].Rows / s.K, Cols: in[0].Cols / s.K}, nil
}

// Run implements graph.Operator.
func (s *Subsample) Run(in []*tensor.Tensor, out *tensor.Tensor) error {
	x := in[0]
	if x.Rows() != out.Rows()*s.K || x.Cols() != out.Cols()*s.K {
		return fmt.Errorf("ops: subsample input %v inconsistent with output %v (K=%d)", x, out, s.K)
	}
	inv := 1 / float32(s.K*s.K)
	s.rows(out.Rows(), nil, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			// Row-wise like convRows: each element still sums its window
			// from +0 in ascending (kr, kc) order, then scales.
			orow := out.Row(r)
			clear(orow)
			for kr := 0; kr < s.K; kr++ {
				xrow := x.Row(r*s.K + kr)
				for c := range orow {
					for _, v := range xrow[c*s.K : (c+1)*s.K] {
						orow[c] += v
					}
				}
			}
			for c := range orow {
				orow[c] *= inv
			}
		}
	})
	return nil
}

// FLOPs implements graph.Operator.
func (s *Subsample) FLOPs(in []graph.Shape, out graph.Shape) int64 {
	return out.Size() * int64(s.K*s.K+1)
}

// InputRegion implements graph.Splittable: output rows [r, r+n) need input
// rows [rK, (r+n)K) — a non-overlapping, scaled partition.
func (s *Subsample) InputRegion(i int, out graph.Region, in []graph.Region) (graph.Region, bool) {
	return graph.Region{
		Row:  out.Row * s.K,
		Col:  out.Col * s.K,
		Rows: out.Rows * s.K,
		Cols: out.Cols * s.K,
	}, false
}

var (
	_ graph.Operator       = (*Subsample)(nil)
	_ graph.Splittable     = (*Subsample)(nil)
	_ graph.ScheduleBinder = (*Subsample)(nil)
)

// MatMul multiplies A (M×K) by B (K×N) producing M×N. The paper uses it
// as the example of a split-rule hint: a large matrix multiply is split by
// breaking up A and the output along rows while B is replicated.
type MatMul struct {
	schedulable
}

// NewMatMul returns a matrix-multiplication operator.
func NewMatMul() *MatMul { return &MatMul{} }

// BindSchedule implements graph.ScheduleBinder.
func (m *MatMul) BindSchedule(sch loadbalance.Schedule) graph.Operator {
	m2 := *m
	m2.sched = sch
	return &m2
}

// Kind implements graph.Operator.
func (*MatMul) Kind() string { return "matmul" }

// OutShape implements graph.Operator.
func (m *MatMul) OutShape(in []graph.Shape) (graph.Shape, error) {
	if err := wantInputs(m.Kind(), in, 2); err != nil {
		return graph.Shape{}, err
	}
	if in[0].Cols != in[1].Rows {
		return graph.Shape{}, fmt.Errorf("ops: matmul inner dims %v x %v", in[0], in[1])
	}
	return graph.Shape{Rows: in[0].Rows, Cols: in[1].Cols}, nil
}

// Run implements graph.Operator.
func (m *MatMul) Run(in []*tensor.Tensor, out *tensor.Tensor) error {
	a, b := in[0], in[1]
	if a.Rows() != out.Rows() || b.Cols() != out.Cols() || a.Cols() != b.Rows() {
		return fmt.Errorf("ops: matmul shapes %v x %v -> %v", a, b, out)
	}
	k := a.Cols()
	m.rows(out.Rows(), nil, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			arow := a.Row(r)
			orow := out.Row(r)
			for i := range orow {
				orow[i] = 0
			}
			for kk := 0; kk < k; kk++ {
				av := arow[kk]
				brow := b.Row(kk)
				for c := range orow {
					orow[c] += av * brow[c]
				}
			}
		}
	})
	return nil
}

// FLOPs implements graph.Operator.
func (*MatMul) FLOPs(in []graph.Shape, out graph.Shape) int64 {
	return 2 * out.Size() * int64(in[0].Cols)
}

// InputRegion implements graph.Splittable: A splits by output rows
// (keeping all K columns); B is replicated. Column splits of the output
// are not supported for A (full row needed), so the rule demands the full
// column range of A.
func (*MatMul) InputRegion(i int, out graph.Region, in []graph.Region) (graph.Region, bool) {
	if i == 1 {
		return graph.Region{}, true
	}
	return graph.Region{Row: out.Row, Col: in[0].Col, Rows: out.Rows, Cols: in[0].Cols}, false
}

var (
	_ graph.Operator       = (*MatMul)(nil)
	_ graph.Splittable     = (*MatMul)(nil)
	_ graph.ScheduleBinder = (*MatMul)(nil)
)
