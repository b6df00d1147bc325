package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 || m.Len() != 12 {
		t.Fatalf("shape = %dx%d len %d, want 3x4 len 12", m.Rows(), m.Cols(), m.Len())
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if m.At(r, c) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", r, c, m.At(r, c))
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromSlice layout wrong: %v %v", m.At(0, 1), m.At(1, 0))
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched length")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestViewSharesStorage(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 9)
	if m.At(1, 1) != 9 {
		t.Fatalf("view write did not propagate: m(1,1)=%v", m.At(1, 1))
	}
	m.Set(2, 2, 5)
	if v.At(1, 1) != 5 {
		t.Fatalf("parent write did not propagate: v(1,1)=%v", v.At(1, 1))
	}
}

func TestViewShapeAndStride(t *testing.T) {
	m := New(5, 7)
	v := m.View(2, 3, 2, 3)
	if v.Rows() != 2 || v.Cols() != 3 {
		t.Fatalf("view shape %dx%d, want 2x3", v.Rows(), v.Cols())
	}
	if v.stride != 7 {
		t.Fatalf("view stride %d, want 7", v.stride)
	}
	if v.Contiguous() {
		t.Fatal("2x3 view of 5x7 must not be contiguous")
	}
}

func TestViewOutOfRangePanics(t *testing.T) {
	m := New(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.View(2, 0, 2, 3)
}

func TestRowRange(t *testing.T) {
	m := New(4, 2)
	for r := 0; r < 4; r++ {
		m.Set(r, 0, float32(r))
	}
	v := m.View(1, 0, 2, m.Cols())
	if v.Rows() != 2 || v.At(0, 0) != 1 || v.At(1, 0) != 2 {
		t.Fatalf("row-range view wrong: %v", v.Data())
	}
	if !v.Contiguous() {
		t.Fatal("row range of full-width tensor should be contiguous")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 100)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if !m.AlmostEqual(m, 0) {
		t.Fatal("self equality failed")
	}
}

func TestCloneOfViewIsContiguous(t *testing.T) {
	m := New(4, 4)
	m.Set(1, 1, 3)
	c := m.View(1, 1, 2, 2).Clone()
	if !c.Contiguous() {
		t.Fatal("clone must be contiguous")
	}
	if c.At(0, 0) != 3 {
		t.Fatalf("clone content wrong: %v", c.At(0, 0))
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).CopyFrom(New(2, 3))
}

func TestFillAndSum(t *testing.T) {
	m := New(3, 3)
	m.Fill(2)
	if got := m.Sum(); got != 18 {
		t.Fatalf("Sum = %v, want 18", got)
	}
}

func TestDataOfViewCopies(t *testing.T) {
	m := New(3, 3)
	m.Set(0, 0, 1)
	m.Set(1, 0, 2)
	v := m.View(0, 0, 2, 2)
	d := v.Data()
	if len(d) != 4 || d[0] != 1 || d[2] != 2 {
		t.Fatalf("view Data wrong: %v", d)
	}
	d[0] = 42
	if m.At(0, 0) != 1 {
		t.Fatal("Data() of non-contiguous view must be a copy")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{1, 2.5, 3})
	if got := a.MaxAbsDiff(b); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("MaxAbsDiff = %v, want 0.5", got)
	}
	c := New(2, 2)
	if !math.IsInf(a.MaxAbsDiff(c), 1) {
		t.Fatal("shape mismatch should give +Inf")
	}
	if a.Equal(b) {
		t.Fatal("Equal should be false")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("Equal to clone should be true")
	}
}

// A NaN must never compare equal to a number (|NaN − x| > max is false,
// which used to let it through); identical non-finite values still match.
func TestEqualTreatsNaNAsDifference(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	a := FromSlice(1, 4, []float32{1, nan, inf, -inf})
	if !a.Equal(a.Clone()) {
		t.Fatal("identical NaN/Inf elements must compare equal")
	}
	for i, v := range []float32{nan, 2, nan, nan} {
		b := a.Clone()
		b.Set(0, i, v)
		if a.Equal(b) || b.Equal(a) || !math.IsInf(a.MaxAbsDiff(b), 1) {
			t.Fatalf("element %d: %v against %v must not compare equal", i, a.At(0, i), v)
		}
	}
}

// Property: a view of a view addresses the same elements as the composed
// view of the parent.
func TestViewCompositionProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%5) + 4 // 4..8
		m := New(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				m.Set(r, c, float32(r*n+c))
			}
		}
		v1 := m.View(1, 1, n-2, n-2)
		v2 := v1.View(1, 1, n-3, n-3)
		direct := m.View(2, 2, n-3, n-3)
		return v2.Equal(direct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone round-trips through FromSlice(Data()).
func TestCloneDataRoundTripProperty(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		cols := len(vals)
		m := FromSlice(1, cols, vals)
		back := FromSlice(1, cols, m.Clone().Data())
		return m.Equal(back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
