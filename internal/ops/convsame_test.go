package ops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestConv2DSameShape(t *testing.T) {
	c := NewConv2DSame(16, 16)
	out, err := c.OutShape([]graph.Shape{{Rows: 100, Cols: 80}, {Rows: 16, Cols: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if out != (graph.Shape{Rows: 100, Cols: 80}) {
		t.Fatalf("out = %v", out)
	}
	if _, err := c.OutShape([]graph.Shape{{Rows: 10, Cols: 10}, {Rows: 3, Cols: 3}}); err == nil {
		t.Fatal("kernel mismatch must error")
	}
}

func TestConv2DSamePadding(t *testing.T) {
	c := NewConv2DSame(16, 16)
	if c.PadTop() != 7 || c.PadLeft() != 7 {
		t.Fatalf("pad = %d,%d", c.PadTop(), c.PadLeft())
	}
	c3 := NewConv2DSame(3, 3)
	if c3.PadTop() != 1 {
		t.Fatalf("3x3 pad = %d", c3.PadTop())
	}
}

func TestConv2DSameIdentity(t *testing.T) {
	// 3x3 kernel with center 1 reproduces the image exactly (zero pad
	// irrelevant because only the center tap is non-zero).
	rng := rand.New(rand.NewSource(3))
	img := randTensor(rng, 7, 9)
	ker := tensor.New(3, 3)
	ker.Set(1, 1, 1)
	out := run(t, NewConv2DSame(3, 3), img, ker)
	if !out.Equal(img) {
		t.Fatal("center-tap kernel must reproduce the image")
	}
}

func TestConv2DSameBoundaryZeroPad(t *testing.T) {
	// All-ones 3x3 kernel on all-ones image: interior = 9, corner = 4,
	// edge (non-corner) = 6.
	img := tensor.New(4, 4)
	img.Fill(1)
	ker := tensor.New(3, 3)
	ker.Fill(1)
	out := run(t, NewConv2DSame(3, 3), img, ker)
	if out.At(1, 1) != 9 || out.At(0, 0) != 4 || out.At(0, 1) != 6 {
		t.Fatalf("boundary values wrong: %v", out.Data())
	}
}

func TestConv2DSameMatchesValidInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	img := randTensor(rng, 10, 10)
	ker := randTensor(rng, 3, 3)
	same := run(t, NewConv2DSame(3, 3), img, ker)
	valid := run(t, NewConv2D(3, 3), img, ker)
	// same[1+r][1+c] == valid[r][c] for the 3x3 centering convention.
	for r := 0; r < valid.Rows(); r++ {
		for c := 0; c < valid.Cols(); c++ {
			if same.At(r+1, c+1) != valid.At(r, c) {
				t.Fatalf("interior mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestConv2DSameInputRegionClipping(t *testing.T) {
	c := NewConv2DSame(3, 3)
	full := []graph.Region{{Row: 0, Col: 0, Rows: 10, Cols: 8}, {Rows: 3, Cols: 3}}
	// Top chunk: clipped at row 0.
	reg, repl := c.InputRegion(0, graph.Region{Row: 0, Col: 0, Rows: 5, Cols: 8}, full)
	if repl {
		t.Fatal("image must not be replicated")
	}
	if want := (graph.Region{Row: 0, Col: 0, Rows: 6, Cols: 8}); reg != want {
		t.Fatalf("top region = %v, want %v", reg, want)
	}
	// Bottom chunk: clipped at the bottom.
	reg, _ = c.InputRegion(0, graph.Region{Row: 5, Col: 0, Rows: 5, Cols: 8}, full)
	if want := (graph.Region{Row: 4, Col: 0, Rows: 6, Cols: 8}); reg != want {
		t.Fatalf("bottom region = %v, want %v", reg, want)
	}
	// Kernel replicated.
	if _, repl := c.InputRegion(1, graph.Region{}, full); !repl {
		t.Fatal("kernel must be replicated")
	}
}

// Property: computing a row chunk via RunRegion with the clipped halo
// matches the corresponding rows of the full result — the correctness
// contract the split pass relies on, including at image boundaries.
func TestConv2DSameRegionProperty(t *testing.T) {
	f := func(seed int64, khRaw, cutRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		kh := int(khRaw%5) + 2 // 2..6
		c := NewConv2DSame(kh, kh)
		h, w := 14, 9
		img := randTensor(rng, h, w)
		ker := randTensor(rng, kh, kh)
		full := tensor.New(h, w)
		if err := c.Run([]*tensor.Tensor{img, ker}, full); err != nil {
			return false
		}
		cut := 1 + int(cutRaw)%(h-1)
		for _, chunk := range [][2]int{{0, cut}, {cut, h - cut}} {
			outReg := graph.Region{Row: chunk[0], Col: 0, Rows: chunk[1], Cols: w}
			inReg, _ := c.InputRegion(0, outReg, []graph.Region{{Rows: h, Cols: w}, {Rows: kh, Cols: kh}})
			sub := img.View(inReg.Row, inReg.Col, inReg.Rows, inReg.Cols).Clone()
			part := tensor.New(outReg.Rows, outReg.Cols)
			err := c.RunRegion([]*tensor.Tensor{sub, ker},
				[]graph.Region{inReg, {Rows: kh, Cols: kh}}, part, outReg)
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
