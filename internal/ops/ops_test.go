package ops

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func randTensor(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	for r := 0; r < rows; r++ {
		row := t.Row(r)
		for i := range row {
			row[i] = rng.Float32()*2 - 1
		}
	}
	return t
}

func run(t *testing.T, op graph.Operator, in ...*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	shapes := make([]graph.Shape, len(in))
	for i, x := range in {
		shapes[i] = graph.Shape{Rows: x.Rows(), Cols: x.Cols()}
	}
	os, err := op.OutShape(shapes)
	if err != nil {
		t.Fatalf("OutShape: %v", err)
	}
	out := tensor.New(os.Rows, os.Cols)
	if err := op.Run(in, out); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out
}

func TestConv2DIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img := randTensor(rng, 6, 7)
	ker := tensor.New(1, 1)
	ker.Set(0, 0, 1)
	out := run(t, NewConv2D(1, 1), img, ker)
	if !out.Equal(img) {
		t.Fatal("1x1 identity kernel must reproduce the image")
	}
}

func TestConv2DKnownValues(t *testing.T) {
	img := tensor.FromSlice(3, 3, []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	ker := tensor.FromSlice(2, 2, []float32{
		1, 0,
		0, 1,
	})
	out := run(t, NewConv2D(2, 2), img, ker)
	want := tensor.FromSlice(2, 2, []float32{
		1 + 5, 2 + 6,
		4 + 8, 5 + 9,
	})
	if !out.Equal(want) {
		t.Fatalf("conv = %v, want %v", out.Data(), want.Data())
	}
}

func TestConv2DShapeErrors(t *testing.T) {
	c := NewConv2D(5, 5)
	if _, err := c.OutShape([]graph.Shape{{Rows: 3, Cols: 3}, {Rows: 5, Cols: 5}}); err == nil {
		t.Fatal("image smaller than kernel must error")
	}
	if _, err := c.OutShape([]graph.Shape{{Rows: 10, Cols: 10}, {Rows: 4, Cols: 4}}); err == nil {
		t.Fatal("kernel shape mismatch must error")
	}
	if _, err := c.OutShape([]graph.Shape{{Rows: 10, Cols: 10}}); err == nil {
		t.Fatal("wrong input count must error")
	}
}

// Property (the paper's splitting correctness requirement): convolving a
// split input region reproduces the matching region of the whole result.
func TestConv2DSplitRegionProperty(t *testing.T) {
	f := func(seed int64, khRaw, splitRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		kh := int(khRaw%4) + 2 // 2..5
		c := NewConv2D(kh, kh)
		h, w := 16, 12
		img := randTensor(rng, h, w)
		ker := randTensor(rng, kh, kh)
		full := tensor.New(h-kh+1, w-kh+1)
		if err := c.Run([]*tensor.Tensor{img, ker}, full); err != nil {
			return false
		}
		// Split output rows at an arbitrary point.
		cut := 1 + int(splitRaw)%(full.Rows()-1)
		outReg := graph.Region{Row: cut, Col: 0, Rows: full.Rows() - cut, Cols: full.Cols()}
		inReg, repl := c.InputRegion(0, outReg, nil)
		if repl {
			return false
		}
		sub := img.View(inReg.Row, inReg.Col, inReg.Rows, inReg.Cols)
		part := tensor.New(outReg.Rows, outReg.Cols)
		if err := c.Run([]*tensor.Tensor{sub.Clone(), ker}, part); err != nil {
			return false
		}
		return part.AlmostEqual(full.View(cut, 0, outReg.Rows, full.Cols()).Clone(), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCombine(t *testing.T) {
	a := tensor.FromSlice(1, 3, []float32{1, 5, -2})
	b := tensor.FromSlice(1, 3, []float32{4, 2, -7})
	out := run(t, NewMaxCombine(2), a, b)
	want := []float32{4, 5, -2}
	for i, w := range want {
		if out.At(0, i) != w {
			t.Fatalf("max[%d] = %v, want %v", i, out.At(0, i), w)
		}
	}
}

func TestAbsMaxCombine(t *testing.T) {
	a := tensor.FromSlice(1, 2, []float32{1, -5})
	b := tensor.FromSlice(1, 2, []float32{-4, 2})
	out := run(t, NewAbsMaxCombine(2), a, b)
	if out.At(0, 0) != 4 || out.At(0, 1) != 5 {
		t.Fatalf("absmax = %v", out.Data())
	}
}

func TestAddN(t *testing.T) {
	a := tensor.FromSlice(1, 2, []float32{1, 2})
	b := tensor.FromSlice(1, 2, []float32{10, 20})
	c := tensor.FromSlice(1, 2, []float32{100, 200})
	out := run(t, NewAddN(3), a, b, c)
	if out.At(0, 0) != 111 || out.At(0, 1) != 222 {
		t.Fatalf("add = %v", out.Data())
	}
}

func TestTanh(t *testing.T) {
	x := tensor.FromSlice(1, 2, []float32{0, 100})
	out := run(t, NewTanh(), x)
	if out.At(0, 0) != 0 {
		t.Fatalf("tanh(0) = %v", out.At(0, 0))
	}
	if math.Abs(float64(out.At(0, 1))-1) > 1e-6 {
		t.Fatalf("tanh(100) = %v", out.At(0, 1))
	}
}

func TestRemapClamps(t *testing.T) {
	x := tensor.FromSlice(1, 3, []float32{-10, 0.25, 10})
	out := run(t, NewRemap(2, 0, -1, 1), x)
	if out.At(0, 0) != -1 || out.At(0, 1) != 0.5 || out.At(0, 2) != 1 {
		t.Fatalf("remap = %v", out.Data())
	}
}

func TestScaleAndCopy(t *testing.T) {
	x := tensor.FromSlice(1, 2, []float32{3, -4})
	if out := run(t, NewScale(0.5), x); out.At(0, 0) != 1.5 || out.At(0, 1) != -2 {
		t.Fatalf("scale = %v", out.Data())
	}
	if out := run(t, NewScale(1), x); !out.Equal(x) {
		t.Fatal("scale by 1 must copy its input")
	}
}

func TestElementwiseShapeMismatch(t *testing.T) {
	op := NewAddN(2)
	if _, err := op.OutShape([]graph.Shape{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 3}}); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestBiasAdd(t *testing.T) {
	x := tensor.FromSlice(2, 2, []float32{1, 2, 3, 4})
	bias := tensor.FromSlice(1, 1, []float32{10})
	out := run(t, NewBiasAdd(), x, bias)
	if out.At(0, 0) != 11 || out.At(1, 1) != 14 {
		t.Fatalf("bias = %v", out.Data())
	}
	if _, err := NewBiasAdd().OutShape([]graph.Shape{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 1}}); err == nil {
		t.Fatal("non-scalar bias must error")
	}
}

func TestBiasAddSplitRule(t *testing.T) {
	b := NewBiasAdd()
	reg := graph.Region{Row: 2, Col: 0, Rows: 3, Cols: 4}
	if got, repl := b.InputRegion(0, reg, nil); repl || got != reg {
		t.Fatalf("data input must split identically, got %v repl=%v", got, repl)
	}
	if _, repl := b.InputRegion(1, reg, nil); !repl {
		t.Fatal("bias input must be replicated")
	}
}

func TestSubsample(t *testing.T) {
	x := tensor.FromSlice(2, 4, []float32{
		1, 3, 5, 7,
		5, 7, 9, 11,
	})
	out := run(t, NewSubsample(2), x)
	if out.Rows() != 1 || out.Cols() != 2 {
		t.Fatalf("subsample shape %v", out)
	}
	if out.At(0, 0) != 4 || out.At(0, 1) != 8 {
		t.Fatalf("subsample = %v", out.Data())
	}
	if _, err := NewSubsample(3).OutShape([]graph.Shape{{Rows: 4, Cols: 6}}); err == nil {
		t.Fatal("non-divisible input must error")
	}
}

func TestSubsampleSplitRegion(t *testing.T) {
	s := NewSubsample(2)
	reg, repl := s.InputRegion(0, graph.Region{Row: 3, Col: 0, Rows: 2, Cols: 5}, nil)
	if repl {
		t.Fatal("subsample input must not be replicated")
	}
	want := graph.Region{Row: 6, Col: 0, Rows: 4, Cols: 10}
	if reg != want {
		t.Fatalf("InputRegion = %v, want %v", reg, want)
	}
}

func TestFLOPsPositive(t *testing.T) {
	img := graph.Shape{Rows: 10, Cols: 10}
	ker := graph.Shape{Rows: 3, Cols: 3}
	out := graph.Shape{Rows: 8, Cols: 8}
	if NewConv2D(3, 3).FLOPs([]graph.Shape{img, ker}, out) != int64(8*8*3*3*2) {
		t.Fatal("conv FLOPs wrong")
	}
	if NewTanh().FLOPs(nil, out) <= 0 {
		t.Fatal("tanh FLOPs must be positive")
	}
}
