// Package tensor provides dense 2-D float32 tensors used as the data
// representation for all operator kernels in the framework. Tensors are
// row-major and support zero-copy views onto row ranges, which is how the
// operator-splitting pass (internal/split) expresses the sub-regions that
// split operators read and write.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major 2-D array of float32 values. A Tensor may be
// a view onto a parent's storage (see View); mutating a view mutates the
// parent and vice versa.
type Tensor struct {
	rows, cols int
	stride     int // distance in floats between the starts of adjacent rows
	data       []float32
}

// New returns a zero-filled rows×cols tensor.
func New(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Tensor{rows: rows, cols: cols, stride: cols, data: make([]float32, rows*cols)}
}

// FromSlice returns a rows×cols tensor that adopts data (no copy).
// len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float32) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d floats, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Tensor{rows: rows, cols: cols, stride: cols, data: data}
}

// Rows returns the number of rows.
func (t *Tensor) Rows() int { return t.rows }

// Cols returns the number of columns.
func (t *Tensor) Cols() int { return t.cols }

// Len returns the number of elements (rows*cols).
func (t *Tensor) Len() int { return t.rows * t.cols }

// Contiguous reports whether the tensor's elements are contiguous in memory.
func (t *Tensor) Contiguous() bool { return t.stride == t.cols || t.rows <= 1 }

// At returns the element at (r, c).
func (t *Tensor) At(r, c int) float32 {
	t.check(r, c)
	return t.data[r*t.stride+c]
}

// Set assigns v to the element at (r, c).
func (t *Tensor) Set(r, c int, v float32) {
	t.check(r, c)
	t.data[r*t.stride+c] = v
}

func (t *Tensor) check(r, c int) {
	if r < 0 || r >= t.rows || c < 0 || c >= t.cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %dx%d", r, c, t.rows, t.cols))
	}
}

// Row returns the r-th row as a slice sharing the tensor's storage.
func (t *Tensor) Row(r int) []float32 {
	if r < 0 || r >= t.rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", r, t.rows))
	}
	return t.data[r*t.stride : r*t.stride+t.cols]
}

// View returns a tensor sharing storage with t that covers rows
// [rowOff, rowOff+rows) and columns [colOff, colOff+cols).
func (t *Tensor) View(rowOff, colOff, rows, cols int) *Tensor {
	if rowOff < 0 || colOff < 0 || rows < 0 || cols < 0 ||
		rowOff+rows > t.rows || colOff+cols > t.cols {
		panic(fmt.Sprintf("tensor: view (%d,%d,%d,%d) out of range %dx%d",
			rowOff, colOff, rows, cols, t.rows, t.cols))
	}
	return &Tensor{
		rows:   rows,
		cols:   cols,
		stride: t.stride,
		data:   t.data[rowOff*t.stride+colOff:],
	}
}

// Clone returns a deep, contiguous copy of t.
func (t *Tensor) Clone() *Tensor {
	out := New(t.rows, t.cols)
	out.CopyFrom(t)
	return out
}

// CopyFrom copies src's elements into t. Shapes must match.
func (t *Tensor) CopyFrom(src *Tensor) {
	if t.rows != src.rows || t.cols != src.cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d",
			t.rows, t.cols, src.rows, src.cols))
	}
	for r := 0; r < t.rows; r++ {
		copy(t.Row(r), src.Row(r))
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for r := 0; r < t.rows; r++ {
		row := t.Row(r)
		for i := range row {
			row[i] = v
		}
	}
}

// Data returns the underlying storage if the tensor is contiguous; otherwise
// it returns a contiguous copy of the elements.
func (t *Tensor) Data() []float32 {
	if t.Contiguous() {
		return t.data[:t.rows*t.cols]
	}
	out := make([]float32, 0, t.rows*t.cols)
	for r := 0; r < t.rows; r++ {
		out = append(out, t.Row(r)...)
	}
	return out
}

// Equal reports whether t and o have the same shape and identical elements.
func (t *Tensor) Equal(o *Tensor) bool {
	return t.MaxAbsDiff(o) == 0
}

// AlmostEqual reports whether t and o have the same shape and elementwise
// absolute differences no greater than tol.
func (t *Tensor) AlmostEqual(o *Tensor, tol float64) bool {
	if t.rows != o.rows || t.cols != o.cols {
		return false
	}
	return t.MaxAbsDiff(o) <= tol
}

// MaxAbsDiff returns the maximum elementwise absolute difference between t
// and o, or +Inf if the shapes differ or a NaN on one side faces a number
// on the other (so Equal never passes a NaN off as a match; NaN against
// NaN and an infinity against itself count as identical).
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	if t.rows != o.rows || t.cols != o.cols {
		return math.Inf(1)
	}
	var max float64
	for r := 0; r < t.rows; r++ {
		tr, or := t.Row(r), o.Row(r)
		for i := range tr {
			d := math.Abs(float64(tr[i]) - float64(or[i]))
			if d > max {
				max = d
			} else if d != d && tr[i] != or[i] && (tr[i] == tr[i] || or[i] == or[i]) {
				return math.Inf(1)
			}
		}
	}
	return max
}

// String returns a compact shape descriptor such as "Tensor(3x4)".
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%dx%d)", t.rows, t.cols)
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	var s float64
	for r := 0; r < t.rows; r++ {
		for _, v := range t.Row(r) {
			s += float64(v)
		}
	}
	return s
}
