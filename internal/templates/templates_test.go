package templates

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestEdgeDetectStructure(t *testing.T) {
	g, bufs, err := EdgeDetect(EdgeConfig{ImageH: 100, ImageW: 100, KernelSize: 16, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	// 2 convs + 2 remaps + 1 combine.
	if s.Operators != 5 {
		t.Fatalf("ops = %d, want 5", s.Operators)
	}
	// Img + 2 kernels + E1..E4 + Edg.
	if s.DataStructures != 8 {
		t.Fatalf("data = %d, want 8", s.DataStructures)
	}
	if len(bufs.Kernels) != 2 || bufs.Image == nil || bufs.EdgeMap == nil {
		t.Fatal("buffers incomplete")
	}
	if !bufs.EdgeMap.IsOutput || !bufs.Image.IsInput {
		t.Fatal("roles wrong")
	}
}

// TestEdgeDetectPaperFootprints verifies the exact Table 1 accounting for
// the 1000×1000 edge template: total temporary data 6,000,512 floats and
// I/O lower bound 2,000,512 floats.
func TestEdgeDetectPaperFootprints(t *testing.T) {
	g, _, err := EdgeDetect(EdgeConfig{ImageH: 1000, ImageW: 1000, KernelSize: 16, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.TotalFloats != 6000512 {
		t.Fatalf("total data = %d, want 6000512 (paper Table 1)", s.TotalFloats)
	}
	// The max operator has the largest footprint: 4 inputs + 1 output = 5
	// image-sized buffers (Fig. 1(c): "roughly nine times the input" for 8
	// orientations; five for the 4-orientation experimental config).
	if s.MaxFootprint != 5000000 {
		t.Fatalf("max footprint = %d, want 5000000", s.MaxFootprint)
	}
}

// Fig. 1(c)'s memory-requirement claims: convolution operators have ~2x
// the image footprint, the combine has (orientations+1)x.
func TestEdgeDetectOperatorFootprints(t *testing.T) {
	g, _, err := EdgeDetect(EdgeConfig{ImageH: 200, ImageW: 200, KernelSize: 16, Orientations: 8})
	if err != nil {
		t.Fatal(err)
	}
	img := int64(200 * 200)
	for _, n := range g.Nodes {
		fp := n.Footprint()
		switch n.Op.Kind() {
		case "conv2d-same":
			if fp != 2*img+16*16 {
				t.Fatalf("conv footprint = %d", fp)
			}
		case "remap":
			if fp != 2*img {
				t.Fatalf("remap footprint = %d", fp)
			}
		case "max":
			if fp != 9*img { // 8 orientation maps + output: the "roughly
				// nine times the input image size" of Fig. 1(c)
				t.Fatalf("max footprint = %d, want %d", fp, 9*img)
			}
		}
	}
}

func TestEdgeDetectValidation(t *testing.T) {
	if _, _, err := EdgeDetect(EdgeConfig{ImageH: 0, ImageW: 10, KernelSize: 3, Orientations: 4}); err == nil {
		t.Fatal("zero height must error")
	}
	if _, _, err := EdgeDetect(EdgeConfig{ImageH: 10, ImageW: 10, KernelSize: 3, Orientations: 3}); err == nil {
		t.Fatal("odd orientations must error")
	}
	if _, _, err := EdgeDetect(EdgeConfig{ImageH: 10, ImageW: 10, KernelSize: 30, Orientations: 4}); err == nil {
		t.Fatal("kernel larger than image must error")
	}
	if _, _, err := EdgeDetect(EdgeConfig{ImageH: 10, ImageW: 10, KernelSize: 3, Orientations: 4, Combine: "bogus"}); err == nil {
		t.Fatal("unknown combine must error")
	}
}

func TestEdgeDetectCombineOps(t *testing.T) {
	for _, c := range []CombineOp{CombineMax, CombineAbsMax, CombineAdd} {
		g, bufs, err := EdgeDetect(EdgeConfig{ImageH: 20, ImageW: 20, KernelSize: 3, Orientations: 2, Combine: c})
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		in := exec.Inputs{
			bufs.Image.ID:      randTensor(1, 20, 20),
			bufs.Kernels[0].ID: randTensor(2, 3, 3),
		}
		if _, err := exec.RunReference(g, in); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}
}

func TestEdgeDetectFig3Structure(t *testing.T) {
	g, err := EdgeDetectFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	// C1, C2, R1', R2', R1'', R2'', max1, max2.
	if s.Operators != 8 {
		t.Fatalf("ops = %d, want 8", s.Operators)
	}
	// Im(2) + E1'..E6'' (8 units) + E', E'' (2 units) = 12 floats total at
	// unit=1.
	if s.TotalFloats != 12 {
		t.Fatalf("total = %d, want 12", s.TotalFloats)
	}
	// Every operator must fit the example's 5-unit GPU memory.
	if s.MaxFootprint > 4 {
		t.Fatalf("max footprint = %d, want <= 4", s.MaxFootprint)
	}
	if got := len(g.OutputBuffers()); got != 2 {
		t.Fatalf("outputs = %d, want 2 (E', E'')", got)
	}
}

func TestEdgeDetectFig3Runs(t *testing.T) {
	g, err := EdgeDetectFig3(3)
	if err != nil {
		t.Fatal(err)
	}
	im := g.InputBuffers()[0]
	out, err := exec.RunReference(g, exec.Inputs{im.Root.ID: randTensor(5, 6, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("outputs = %d roots", len(out))
	}
	if _, err := EdgeDetectFig3(0); err == nil {
		t.Fatal("unit 0 must error")
	}
}

func TestSmallCNNPaperScale(t *testing.T) {
	g, bufs, err := CNN(SmallCNN(640, 480))
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	// Paper: 11 layers, 1600 operators, 2434 data structures. The plane
	// counts were chosen to land within a few percent.
	if s.Operators < 1500 || s.Operators > 1700 {
		t.Fatalf("ops = %d, want ~1600", s.Operators)
	}
	if s.DataStructures < 2300 || s.DataStructures > 2550 {
		t.Fatalf("data structures = %d, want ~2434", s.DataStructures)
	}
	if len(bufs.Outputs) != 2 {
		t.Fatalf("output planes = %d", len(bufs.Outputs))
	}
}

func TestLargeCNNPaperScale(t *testing.T) {
	g, _, err := CNN(LargeCNN(640, 480))
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	// Paper: 7500 operators, 11334 data structures.
	if s.Operators < 7000 || s.Operators > 7900 {
		t.Fatalf("ops = %d, want ~7500", s.Operators)
	}
	if s.DataStructures < 10500 || s.DataStructures > 11800 {
		t.Fatalf("data structures = %d, want ~11334", s.DataStructures)
	}
}

func TestCNNLayerCounts(t *testing.T) {
	cfg := SmallCNN(64, 48)
	conv, tanh, sub := 0, 0, 0
	for _, l := range cfg.Layers {
		switch l.Kind {
		case LayerConv:
			conv++
		case LayerTanh:
			tanh++
		case LayerSubsample:
			sub++
		}
	}
	if len(cfg.Layers) != 11 || conv != 4 || sub != 2 || tanh != 5 {
		t.Fatalf("layers=%d conv=%d sub=%d tanh=%d; paper wants 11/4/2/5",
			len(cfg.Layers), conv, sub, tanh)
	}
}

func TestCNNNumericalExecution(t *testing.T) {
	// A miniature network end-to-end through the reference executor.
	cfg := CNNConfig{
		Name: "tiny", ImageH: 8, ImageW: 8, InPlanes: 2,
		Layers: []CNNLayer{
			{Kind: LayerConv, OutPlanes: 3, KernelSize: 3},
			{Kind: LayerTanh},
			{Kind: LayerSubsample, Factor: 2},
			{Kind: LayerConv, OutPlanes: 1, KernelSize: 3},
			{Kind: LayerTanh},
		},
	}
	g, bufs, err := CNN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := exec.Inputs{}
	seed := int64(10)
	for _, b := range bufs.Inputs {
		in[b.ID] = randTensor(seed, b.Shape().Rows, b.Shape().Cols)
		seed++
	}
	for _, b := range bufs.Params {
		in[b.ID] = randTensor(seed, b.Shape().Rows, b.Shape().Cols)
		seed++
	}
	out, err := exec.RunReference(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("outputs = %d", len(out))
	}
	for _, o := range out {
		if o.Rows() != 4 || o.Cols() != 4 {
			t.Fatalf("output shape %v, want 4x4 after one 2x subsample", o)
		}
		// tanh output bounded.
		for r := 0; r < o.Rows(); r++ {
			for _, v := range o.Row(r) {
				if v < -1 || v > 1 {
					t.Fatalf("tanh output out of range: %v", v)
				}
			}
		}
	}
}

func TestCNNConfigErrors(t *testing.T) {
	if _, _, err := CNN(CNNConfig{ImageH: 0, ImageW: 4, InPlanes: 1}); err == nil {
		t.Fatal("bad image must error")
	}
	bad := CNNConfig{ImageH: 5, ImageW: 5, InPlanes: 1,
		Layers: []CNNLayer{{Kind: LayerSubsample, Factor: 2}}}
	if _, _, err := CNN(bad); err == nil {
		t.Fatal("non-divisible subsample must error")
	}
	bad2 := CNNConfig{ImageH: 4, ImageW: 4, InPlanes: 1,
		Layers: []CNNLayer{{Kind: "mystery"}}}
	if _, _, err := CNN(bad2); err == nil {
		t.Fatal("unknown layer kind must error")
	}
	bad3 := CNNConfig{ImageH: 4, ImageW: 4, InPlanes: 1,
		Layers: []CNNLayer{{Kind: LayerConv}}}
	if _, _, err := CNN(bad3); err == nil {
		t.Fatal("conv without params must error")
	}
}

func randTensor(seed int64, rows, cols int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(rows, cols)
	for r := 0; r < rows; r++ {
		row := t.Row(r)
		for i := range row {
			row[i] = rng.Float32()*0.5 - 0.25
		}
	}
	return t
}

// TestCNNFig7Transformation pins the exact Fig. 7 layer expansion: a
// convolutional layer with 3 input planes and 2 output planes becomes 6
// convolutions plus 6 adds (a bias add and two accumulating adds per
// output plane), with each output produced by a chain
// A(B_j, L_1j) -> A(., L_2j) -> A(., L_3j).
func TestCNNFig7Transformation(t *testing.T) {
	g, bufs, err := CNN(CNNConfig{
		Name: "fig7", ImageH: 8, ImageW: 8, InPlanes: 3,
		Layers: []CNNLayer{{Kind: LayerConv, OutPlanes: 2, KernelSize: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	convs, adds := 0, 0
	for _, n := range g.Nodes {
		switch n.Op.Kind() {
		case "conv2d-same":
			convs++
		case "add", "bias":
			adds++
		}
	}
	if convs != 6 || adds != 6 {
		t.Fatalf("layer expansion: %d convs, %d adds; Fig. 7 wants 6 and 6", convs, adds)
	}
	// Parameters: 6 kernels + 2 biases.
	if len(bufs.Params) != 8 {
		t.Fatalf("params = %d, want 8", len(bufs.Params))
	}
	// Each output plane's producer chain has depth InPlanes (3 adds deep).
	deps := g.Deps()
	prod := g.Producer()
	for _, out := range bufs.Outputs {
		depth := 0
		n := prod[out.ID]
		for n != nil && (n.Op.Kind() == "add" || n.Op.Kind() == "bias") {
			depth++
			var next *graph.Node
			for _, d := range deps[n.ID] {
				if d.Op.Kind() == "add" || d.Op.Kind() == "bias" {
					next = d
				}
			}
			n = next
		}
		if depth != 3 {
			t.Fatalf("accumulation chain depth = %d, want 3", depth)
		}
	}
}
