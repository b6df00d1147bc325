package ops

import (
	"fmt"
	"strconv"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/tensor"
)

// SpMV is sparse matrix × dense vector over a fixed CSR sparsity
// structure: inputs are [A (m×n, the matrix values as a logical dense
// buffer), x (n×1)] and the output is m×1. The structure (row pointers +
// column indices) is baked into the operator instance — it is a template
// parameter, like a convolution's kernel size — while the values flow
// through the graph as an ordinary buffer, so splitting, transfers, and
// admission all see A as a logical m×n tensor whose *footprint* the
// sparse templates report via a CSR estimator (graph.Buffer.Est). The
// kernel touches only the nonzero positions: O(nnz) work however dense
// the logical extent.
//
// Row work is nnz(row), which is exactly the irregular load the
// load-balancing schedules exist for: the kernel passes a per-row cost
// to the bound schedule so merge-path and work-stealing can absorb
// power-law row skew that serializes the static split.
type SpMV struct {
	schedulable
	S *tensor.CSR
	// csr is S.StructureDigest(), hashed once at construction: every
	// fingerprint of a graph holding this node writes it.
	csr string
}

// NewSpMV returns an SpMV operator over the given sparsity structure.
func NewSpMV(s *tensor.CSR) *SpMV {
	if s == nil {
		panic("ops: spmv needs a CSR structure")
	}
	return &SpMV{S: s, csr: s.StructureDigest()}
}

// BindSchedule implements graph.ScheduleBinder.
func (o *SpMV) BindSchedule(s loadbalance.Schedule) graph.Operator {
	o2 := *o
	o2.sched = s
	return &o2
}

// Kind implements graph.Operator.
func (o *SpMV) Kind() string { return "spmv" }

// AppendParams implements graph.OpParams: the CSR structure digest is
// part of the operator's identity, so two SpMVs over different sparsity
// patterns never share a fingerprint (and hence never share a cached
// plan).
func (o *SpMV) AppendParams(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, "m="...), int64(o.S.Rows), 10)
	dst = strconv.AppendInt(append(dst, ",n="...), int64(o.S.Cols), 10)
	dst = strconv.AppendInt(append(dst, ",nnz="...), int64(o.S.NNZ()), 10)
	return append(append(dst, ",csr="...), o.csr...)
}

// OutShape implements graph.Operator.
func (o *SpMV) OutShape(in []graph.Shape) (graph.Shape, error) {
	if err := wantInputs(o.Kind(), in, 2); err != nil {
		return graph.Shape{}, err
	}
	if in[0] != (graph.Shape{Rows: o.S.Rows, Cols: o.S.Cols}) {
		return graph.Shape{}, fmt.Errorf("ops: spmv matrix shape %v, structure is %dx%d", in[0], o.S.Rows, o.S.Cols)
	}
	if in[1] != (graph.Shape{Rows: o.S.Cols, Cols: 1}) {
		return graph.Shape{}, fmt.Errorf("ops: spmv vector shape %v, want %dx1", in[1], o.S.Cols)
	}
	return graph.Shape{Rows: o.S.Rows, Cols: 1}, nil
}

// Run implements graph.Operator for the unsplit case.
func (o *SpMV) Run(in []*tensor.Tensor, out *tensor.Tensor) error {
	inRegs := []graph.Region{
		{Rows: in[0].Rows(), Cols: in[0].Cols()},
		{Rows: in[1].Rows(), Cols: in[1].Cols()},
	}
	return o.RunRegion(in, inRegs, out, graph.Region{Rows: out.Rows(), Cols: out.Cols()})
}

// RunRegion implements graph.RegionRunner: computes output rows outReg
// (root coordinates, which equal CSR row numbers) from an A tensor
// covering inRegs[0]. The region offset is what lets a split part index
// the right rows of the operator-held structure.
func (o *SpMV) RunRegion(in []*tensor.Tensor, inRegs []graph.Region, out *tensor.Tensor, outReg graph.Region) error {
	a, x := in[0], in[1]
	if x.Rows() != o.S.Cols || x.Cols() != 1 {
		return fmt.Errorf("ops: spmv vector tensor %v, want %dx1", x, o.S.Cols)
	}
	if a.Cols() != o.S.Cols || inRegs[0].Col != 0 {
		return fmt.Errorf("ops: spmv matrix tensor %v must span all %d columns", a, o.S.Cols)
	}
	if out.Rows() != outReg.Rows || outReg.Row+outReg.Rows > o.S.Rows {
		return fmt.Errorf("ops: spmv output region %v outside structure rows %d", outReg, o.S.Rows)
	}
	// Flatten x once: column tensors are row-major with one element per
	// row, so per-tap x.At(c, 0) would chase a slice header per nonzero.
	xs := make([]float32, o.S.Cols)
	for i := range xs {
		xs[i] = x.At(i, 0)
	}
	o.rows(outReg.Rows, o.regionCost(outReg), func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			gr := outReg.Row + r
			arow := a.Row(gr - inRegs[0].Row)
			var acc float32
			for j := o.S.RowPtr[gr]; j < o.S.RowPtr[gr+1]; j++ {
				c := o.S.ColIdx[j]
				acc += arow[c] * xs[c]
			}
			out.Set(r, 0, acc)
		}
	})
	return nil
}

// regionCost returns the per-row work estimate for balancing: the row's
// nonzero count plus a constant for the row visit itself.
func (o *SpMV) regionCost(outReg graph.Region) loadbalance.CostFn {
	return func(r int) int64 { return int64(o.S.RowNNZ(outReg.Row+r)) + 1 }
}

// FLOPs implements graph.Operator: one multiply-add per nonzero plus one
// store per row, scaled to the fraction of structure rows the output
// covers (split parts account proportionally; shapes are all the
// signature provides, and proportional is deterministic and sums to the
// whole across a row partition only approximately — the modeled stats
// care that it is a pure function of shapes, which it is).
func (o *SpMV) FLOPs(in []graph.Shape, out graph.Shape) int64 {
	whole := 2*int64(o.S.NNZ()) + int64(o.S.Rows)
	if out.Rows >= o.S.Rows {
		return whole
	}
	return whole * int64(out.Rows) / int64(o.S.Rows)
}

// InputRegion implements graph.Splittable: A splits by output rows
// keeping all columns, and the vector is replicated.
func (o *SpMV) InputRegion(i int, out graph.Region, in []graph.Region) (graph.Region, bool) {
	if i == 1 {
		return graph.Region{}, true
	}
	return graph.Region{Row: out.Row, Col: in[0].Col, Rows: out.Rows, Cols: in[0].Cols}, false
}

// ValidateRegions implements graph.RegionValidator: split parts have
// part-sized outputs, which the whole-operator OutShape would reject.
func (o *SpMV) ValidateRegions(in []graph.Region, out graph.Region) error {
	if len(in) != 2 {
		return fmt.Errorf("ops: spmv wants 2 inputs, got %d", len(in))
	}
	if in[1].Rows != o.S.Cols || in[1].Cols != 1 {
		return fmt.Errorf("ops: spmv vector region %v, want %dx1", in[1], o.S.Cols)
	}
	if out.Cols != 1 || out.Row < 0 || out.Row+out.Rows > o.S.Rows {
		return fmt.Errorf("ops: spmv output region %v invalid for structure rows %d", out, o.S.Rows)
	}
	a := in[0]
	if a.Col != 0 || a.Cols != o.S.Cols || a.Row != out.Row || a.Rows != out.Rows {
		return fmt.Errorf("ops: spmv matrix region %v must be rows %d:%d over all %d columns",
			a, out.Row, out.Row+out.Rows, o.S.Cols)
	}
	return nil
}

var (
	_ graph.Operator        = (*SpMV)(nil)
	_ graph.Splittable      = (*SpMV)(nil)
	_ graph.RegionRunner    = (*SpMV)(nil)
	_ graph.RegionValidator = (*SpMV)(nil)
	_ graph.ScheduleBinder  = (*SpMV)(nil)
	_ graph.OpParams        = (*SpMV)(nil)
)
