package ops

import (
	"fmt"
	"strconv"

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

// AppendParams implements graph.OpParams: the pooling factor.
func (s *Subsample) AppendParams(dst []byte) []byte {
	return strconv.AppendInt(append(dst, "k="...), int64(s.K), 10)
}

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
