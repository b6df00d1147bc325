package templates

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ops"
)

// CNNLayerKind enumerates the torch5-style layer types of §4.1.2.
type CNNLayerKind string

// CNN layer kinds.
const (
	LayerConv      CNNLayerKind = "conv"
	LayerTanh      CNNLayerKind = "tanh"
	LayerSubsample CNNLayerKind = "subsample"
)

// CNNLayer describes one layer of the network.
type CNNLayer struct {
	Kind CNNLayerKind
	// OutPlanes and KernelSize apply to conv layers; Factor to subsample
	// layers.
	OutPlanes  int
	KernelSize int
	Factor     int
	// Connections optionally gives a torch5-style partial connection
	// table for a conv layer: Connections[j] lists the input-plane
	// indices feeding output plane j (LeNet's classic C3 sparsity). Nil
	// means full connectivity, the Fig. 7 case.
	Connections [][]int
}

// CNNConfig parametrizes the CNN template.
type CNNConfig struct {
	Name           string
	ImageH, ImageW int
	InPlanes       int
	Layers         []CNNLayer
}

// CNNBuffers exposes the network's external buffers.
type CNNBuffers struct {
	Inputs  []*graph.Buffer // input planes
	Outputs []*graph.Buffer // final feature maps
	Params  []*graph.Buffer // kernels and biases (template inputs)
}

// SmallCNN returns the paper's "small CNN" configuration: 11 layers — 4
// convolutional, 2 sub-sampling, and 5 tanh — with plane counts chosen so
// the built graph lands at the paper's scale (≈1600 operators and ≈2434
// data structures; exact measured counts are recorded in EXPERIMENTS.md).
func SmallCNN(h, w int) CNNConfig {
	return CNNConfig{
		Name: "small CNN", ImageH: h, ImageW: w, InPlanes: 3,
		Layers: []CNNLayer{
			{Kind: LayerConv, OutPlanes: 12, KernelSize: 5},
			{Kind: LayerTanh},
			{Kind: LayerSubsample, Factor: 2},
			{Kind: LayerConv, OutPlanes: 20, KernelSize: 5},
			{Kind: LayerTanh},
			{Kind: LayerSubsample, Factor: 2},
			{Kind: LayerConv, OutPlanes: 22, KernelSize: 3},
			{Kind: LayerTanh},
			{Kind: LayerConv, OutPlanes: 2, KernelSize: 3},
			{Kind: LayerTanh},
			{Kind: LayerTanh},
		},
	}
}

// LargeCNN returns the paper's "large CNN" configuration: the same
// 11-layer structure with wider layers (paper scale: ≈7500 operators and
// ≈11334 data structures).
func LargeCNN(h, w int) CNNConfig {
	return CNNConfig{
		Name: "large CNN", ImageH: h, ImageW: w, InPlanes: 3,
		Layers: []CNNLayer{
			{Kind: LayerConv, OutPlanes: 24, KernelSize: 5},
			{Kind: LayerTanh},
			{Kind: LayerSubsample, Factor: 2},
			{Kind: LayerConv, OutPlanes: 44, KernelSize: 5},
			{Kind: LayerTanh},
			{Kind: LayerSubsample, Factor: 2},
			{Kind: LayerConv, OutPlanes: 52, KernelSize: 3},
			{Kind: LayerTanh},
			{Kind: LayerConv, OutPlanes: 4, KernelSize: 3},
			{Kind: LayerTanh},
			{Kind: LayerTanh},
		},
	}
}

// CNN builds the network as an operator graph using the Fig. 7 layer
// transformation: a convolutional layer with I input planes and O output
// planes expands into I×O convolutions plus, per output plane, a chain of
// I binary adds starting from the bias:
//
//	S_0j = A(B_j, L_1j); S_ij = A(S_(i-1)j, L_(i+1)j); O_j = S_(I-1)j
//
// Convolutions are simple non-separable 2-D "same" convolutions; the
// template restricts itself to data-parallel additions and tanh, as the
// paper does.
func CNN(cfg CNNConfig) (*graph.Graph, *CNNBuffers, error) {
	if cfg.ImageH <= 0 || cfg.ImageW <= 0 || cfg.InPlanes <= 0 {
		return nil, nil, fmt.Errorf("templates: invalid CNN input %dx%dx%d",
			cfg.InPlanes, cfg.ImageH, cfg.ImageW)
	}
	g := graph.New()
	bufs := &CNNBuffers{}

	h, w := cfg.ImageH, cfg.ImageW
	planes := make([]*graph.Buffer, cfg.InPlanes)
	for i := range planes {
		b := g.NewBuffer(name("In", i+1), graph.Shape{Rows: h, Cols: w})
		b.IsInput = true
		planes[i] = b
	}
	bufs.Inputs = append(bufs.Inputs, planes...)

	for li, layer := range cfg.Layers {
		switch layer.Kind {
		case LayerConv:
			if layer.OutPlanes <= 0 || layer.KernelSize <= 0 {
				return nil, nil, fmt.Errorf("templates: layer %d: bad conv params %+v", li, layer)
			}
			if layer.Connections != nil {
				if len(layer.Connections) != layer.OutPlanes {
					return nil, nil, fmt.Errorf("templates: layer %d: connection table has %d rows for %d output planes",
						li, len(layer.Connections), layer.OutPlanes)
				}
				for j, conn := range layer.Connections {
					if len(conn) == 0 {
						return nil, nil, fmt.Errorf("templates: layer %d: output plane %d has no inputs", li, j)
					}
					for _, i := range conn {
						if i < 0 || i >= len(planes) {
							return nil, nil, fmt.Errorf("templates: layer %d: output %d references input plane %d of %d",
								li, j, i, len(planes))
						}
					}
				}
			}
			// One operator value per layer: every node of the layer
			// shares it, so compiling binds each once.
			conv := ops.NewConv2DSame(layer.KernelSize, layer.KernelSize)
			biasAdd, add := ops.NewBiasAdd(), ops.NewAddN(2)
			next := make([]*graph.Buffer, layer.OutPlanes)
			for j := 0; j < layer.OutPlanes; j++ {
				connected := planes
				if layer.Connections != nil {
					connected = make([]*graph.Buffer, len(layer.Connections[j]))
					for ci, i := range layer.Connections[j] {
						connected[ci] = planes[i]
					}
				}
				bias := g.NewBuffer(name("B", li+1, j+1), graph.Shape{Rows: 1, Cols: 1})
				bias.IsInput = true
				bufs.Params = append(bufs.Params, bias)
				var acc *graph.Buffer
				for i, in := range connected {
					k := g.NewBuffer(name("K", li+1, i+1, j+1),
						graph.Shape{Rows: layer.KernelSize, Cols: layer.KernelSize})
					k.IsInput = true
					bufs.Params = append(bufs.Params, k)
					l := g.NewBuffer(name("L", li+1, i+1, j+1), graph.Shape{Rows: h, Cols: w})
					g.MustAddNode(name("C", li+1, i+1, j+1), conv,
						[]graph.Arg{graph.SingleArg(in), graph.SingleArg(k)}, graph.SingleArg(l))
					s := g.NewBuffer(name("S", li+1, i+1, j+1), graph.Shape{Rows: h, Cols: w})
					if i == 0 {
						g.MustAddNode(name("A", li+1, i+1, j+1), biasAdd,
							[]graph.Arg{graph.SingleArg(l), graph.SingleArg(bias)}, graph.SingleArg(s))
					} else {
						g.MustAddNode(name("A", li+1, i+1, j+1), add,
							[]graph.Arg{graph.SingleArg(acc), graph.SingleArg(l)}, graph.SingleArg(s))
					}
					acc = s
				}
				next[j] = acc
			}
			planes = next
		case LayerTanh:
			tanh := ops.NewTanh()
			next := make([]*graph.Buffer, len(planes))
			for i, in := range planes {
				o := g.NewBuffer(name("T", li+1, i+1), graph.Shape{Rows: h, Cols: w})
				g.MustAddNode(name("Tanh", li+1, i+1), tanh,
					[]graph.Arg{graph.SingleArg(in)}, graph.SingleArg(o))
				next[i] = o
			}
			planes = next
		case LayerSubsample:
			if layer.Factor <= 0 || h%layer.Factor != 0 || w%layer.Factor != 0 {
				return nil, nil, fmt.Errorf("templates: layer %d: %dx%d not divisible by factor %d",
					li, h, w, layer.Factor)
			}
			h /= layer.Factor
			w /= layer.Factor
			sub := ops.NewSubsample(layer.Factor)
			next := make([]*graph.Buffer, len(planes))
			for i, in := range planes {
				o := g.NewBuffer(name("P", li+1, i+1), graph.Shape{Rows: h, Cols: w})
				g.MustAddNode(name("Sub", li+1, i+1), sub,
					[]graph.Arg{graph.SingleArg(in)}, graph.SingleArg(o))
				next[i] = o
			}
			planes = next
		default:
			return nil, nil, fmt.Errorf("templates: layer %d: unknown kind %q", li, layer.Kind)
		}
	}

	for _, p := range planes {
		p.IsOutput = true
	}
	bufs.Outputs = planes
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return g, bufs, nil
}
