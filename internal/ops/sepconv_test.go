package ops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// outer builds the K×K rank-1 kernel col·rowᵀ.
func outer(col, row *tensor.Tensor) *tensor.Tensor {
	k := col.Rows()
	out := tensor.New(k, k)
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			out.Set(r, c, col.At(r, 0)*row.At(0, c))
		}
	}
	return out
}

func TestSeparableConvMatchesFullKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	img := randTensor(rng, 12, 10)
	col := randTensor(rng, 3, 1)
	row := randTensor(rng, 1, 3)

	sep := run(t, NewSeparableConv2D(3), img, col, row)
	full := run(t, NewConv2DSame(3, 3), img, outer(col, row))
	if !sep.AlmostEqual(full, 1e-4) {
		t.Fatalf("separable differs from full kernel by %v", sep.MaxAbsDiff(full))
	}
}

func TestSeparableConvShapeErrors(t *testing.T) {
	c := NewSeparableConv2D(3)
	if _, err := c.OutShape([]graph.Shape{{Rows: 8, Cols: 8}, {Rows: 3, Cols: 3}, {Rows: 1, Cols: 3}}); err == nil {
		t.Fatal("col kernel must be Kx1")
	}
	if _, err := c.OutShape([]graph.Shape{{Rows: 8, Cols: 8}, {Rows: 3, Cols: 1}, {Rows: 3, Cols: 1}}); err == nil {
		t.Fatal("row kernel must be 1xK")
	}
	if _, err := c.OutShape([]graph.Shape{{Rows: 8, Cols: 8}}); err == nil {
		t.Fatal("wrong input count must error")
	}
}

func TestSeparableConvSplitRules(t *testing.T) {
	c := NewSeparableConv2D(5)
	full := []graph.Region{{Rows: 20, Cols: 10}, {Rows: 5, Cols: 1}, {Rows: 1, Cols: 5}}
	reg, repl := c.InputRegion(0, graph.Region{Row: 5, Col: 0, Rows: 5, Cols: 10}, full)
	if repl {
		t.Fatal("image must not replicate")
	}
	// pad = 2: rows [3, 12).
	if want := (graph.Region{Row: 3, Col: 0, Rows: 9, Cols: 10}); reg != want {
		t.Fatalf("region = %v, want %v", reg, want)
	}
	if _, repl := c.InputRegion(1, graph.Region{}, full); !repl {
		t.Fatal("col kernel must replicate")
	}
	if _, repl := c.InputRegion(2, graph.Region{}, full); !repl {
		t.Fatal("row kernel must replicate")
	}
}

// Property: RunRegion on a clipped halo chunk matches the matching rows of
// the full separable result, including image boundaries.
func TestSeparableConvRegionProperty(t *testing.T) {
	f := func(seed int64, kRaw, cutRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := []int{3, 5, 7}[int(kRaw)%3]
		c := NewSeparableConv2D(k)
		h, w := 16, 11
		img := randTensor(rng, h, w)
		col := randTensor(rng, k, 1)
		row := randTensor(rng, 1, k)
		full := tensor.New(h, w)
		if err := c.Run([]*tensor.Tensor{img, col, row}, full); err != nil {
			return false
		}
		cut := 1 + int(cutRaw)%(h-1)
		for _, chunk := range [][2]int{{0, cut}, {cut, h - cut}} {
			outReg := graph.Region{Row: chunk[0], Col: 0, Rows: chunk[1], Cols: w}
			inRegs := []graph.Region{{Rows: h, Cols: w}, {Rows: k, Cols: 1}, {Rows: 1, Cols: k}}
			reg, _ := c.InputRegion(0, outReg, inRegs)
			sub := img.View(reg.Row, reg.Col, reg.Rows, reg.Cols).Clone()
			part := tensor.New(outReg.Rows, outReg.Cols)
			err := c.RunRegion([]*tensor.Tensor{sub, col, row},
				[]graph.Region{reg, inRegs[1], inRegs[2]}, part, outReg)
			if err != nil {
				return false
			}
			if !part.AlmostEqual(full.View(chunk[0], 0, chunk[1], full.Cols()).Clone(), 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSeparableConvFLOPsCheaperThanFull(t *testing.T) {
	out := graph.Shape{Rows: 100, Cols: 100}
	sep := NewSeparableConv2D(9).FLOPs(nil, out)
	full := NewConv2DSame(9, 9).FLOPs(nil, out)
	if sep >= full {
		t.Fatalf("separable FLOPs %d should undercut full %d", sep, full)
	}
}
