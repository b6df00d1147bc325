// Package templates builds the paper's domain-specific templates as
// parallel operator graphs: the find_edges edge-detection template
// (Fig. 1(b), §4.1.1) and torch5-style convolutional neural networks
// (Fig. 7, §4.1.2). Templates are what the framework's users see: a
// parametrized API whose GPU mapping is derived automatically.
package templates

import (
	"fmt"
	"strconv"

	"repro/internal/graph"
	"repro/internal/ops"
)

// name returns prefix followed by nums joined with '_' ("K", 1, 2, 3 →
// "K1_2_3"), the names the templates give their nodes and buffers,
// without fmt's cost at one call per node and buffer.
func name(prefix string, nums ...int) string {
	var buf [32]byte
	b := append(buf[:0], prefix...)
	for i, n := range nums {
		if i > 0 {
			b = append(b, '_')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return string(b)
}

// CombineOp selects the reduction that merges per-orientation edge maps,
// the Combine_op parameter of the find_edges template.
type CombineOp string

// Combine operators supported by the edge template.
const (
	CombineMax    CombineOp = "max"
	CombineAbsMax CombineOp = "absmax"
	CombineAdd    CombineOp = "add"
)

// EdgeConfig parametrizes the edge-detection template:
//
//	edge_map = find_edges(Image, Kernel, num_orientations, Combine_op)
type EdgeConfig struct {
	ImageH, ImageW int
	// KernelSize is the square edge-filter size (the paper uses 16×16).
	KernelSize int
	// Orientations is the number of edge maps combined. Following §4.1.1,
	// half the orientations are computed by convolution with rotated
	// kernels and half by cheap remaps of those responses ("2 convolutions
	// and 2 remaps" for 4 orientations). Must be even and >= 2.
	Orientations int
	Combine      CombineOp
}

// EdgeBuffers exposes the template's external buffers.
type EdgeBuffers struct {
	Image   *graph.Buffer
	Kernels []*graph.Buffer
	EdgeMap *graph.Buffer
}

// EdgeDetect builds the find_edges operator graph. Structure for 4
// orientations (the paper's configuration, Fig. 1(b) simplified per
// §4.1.1):
//
//	C1: Img ⊛ K1 → E1        C2: Img ⊛ K2 → E2
//	R1: remap(E1) → E3       R2: remap(E2) → E4
//	combine(E1, E2, E3, E4) → Edg
func EdgeDetect(cfg EdgeConfig) (*graph.Graph, *EdgeBuffers, error) {
	if cfg.ImageH <= 0 || cfg.ImageW <= 0 {
		return nil, nil, fmt.Errorf("templates: invalid image %dx%d", cfg.ImageH, cfg.ImageW)
	}
	if cfg.KernelSize <= 0 || cfg.KernelSize > cfg.ImageH || cfg.KernelSize > cfg.ImageW {
		return nil, nil, fmt.Errorf("templates: invalid kernel size %d", cfg.KernelSize)
	}
	if cfg.Orientations < 2 || cfg.Orientations%2 != 0 {
		return nil, nil, fmt.Errorf("templates: orientations must be even and >= 2, got %d",
			cfg.Orientations)
	}
	if cfg.Combine == "" {
		cfg.Combine = CombineMax
	}

	g := graph.New()
	imgShape := graph.Shape{Rows: cfg.ImageH, Cols: cfg.ImageW}
	img := g.NewBuffer("Img", imgShape)
	img.IsInput = true

	nc := cfg.Orientations / 2
	bufs := &EdgeBuffers{Image: img}
	maps := make([]*graph.Buffer, 0, cfg.Orientations)

	// One operator value per layer, shared by the layer's nodes.
	conv := ops.NewConv2DSame(cfg.KernelSize, cfg.KernelSize)
	convOuts := make([]*graph.Buffer, nc)
	for i := 0; i < nc; i++ {
		e := g.NewBuffer(name("E", i+1), imgShape)
		k := g.NewBuffer(name("K", i+1), graph.Shape{Rows: cfg.KernelSize, Cols: cfg.KernelSize})
		k.IsInput = true
		bufs.Kernels = append(bufs.Kernels, k)
		g.MustAddNode(name("C", i+1), conv,
			[]graph.Arg{graph.SingleArg(img), graph.SingleArg(k)}, graph.SingleArg(e))
		convOuts[i] = e
		maps = append(maps, e)
	}
	remap := ops.NewRemap(-1, 0, -1e9, 1e9)
	for i := 0; i < nc; i++ {
		e := g.NewBuffer(name("E", nc+i+1), imgShape)
		g.MustAddNode(name("R", i+1), remap,
			[]graph.Arg{graph.SingleArg(convOuts[i])}, graph.SingleArg(e))
		maps = append(maps, e)
	}

	var comb graph.Operator
	switch cfg.Combine {
	case CombineMax:
		comb = ops.NewMaxCombine(len(maps))
	case CombineAbsMax:
		comb = ops.NewAbsMaxCombine(len(maps))
	case CombineAdd:
		comb = ops.NewAddN(len(maps))
	default:
		return nil, nil, fmt.Errorf("templates: unknown combine op %q", cfg.Combine)
	}
	edg := g.NewBuffer("Edg", imgShape)
	edg.IsOutput = true
	args := make([]graph.Arg, len(maps))
	for i, m := range maps {
		args[i] = graph.SingleArg(m)
	}
	g.MustAddNode("max", comb, args, graph.SingleArg(edg))
	bufs.EdgeMap = edg

	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return g, bufs, nil
}

// EdgeDetectFig3 builds the pre-split 2-convolution edge-detection graph
// the paper uses to illustrate scheduling (Fig. 3 / Fig. 6): the input
// image Im has size 2 units, every other data structure 1 unit, and the
// remap and max stages are split in two. Unit = `unit` floats (rows of a
// 1-column buffer; Im is 2*unit).
//
// Graph:
//
//	C1: Im ⊛ K1 → {E1', E1''}   C2: Im ⊛ K2 → {E2', E2''}
//	R1': E1' → E5'    R2': E2' → E6'    max1: (E5', E6') → E'
//	R1'': E1'' → E5''  R2'': E2'' → E6''  max2: (E5'', E6'') → E''
func EdgeDetectFig3(unit int) (*graph.Graph, error) {
	if unit <= 0 {
		return nil, fmt.Errorf("templates: unit must be positive")
	}
	g := graph.New()
	shape2 := graph.Shape{Rows: 2 * unit, Cols: 1}
	im := g.NewBuffer("Im", shape2)
	im.IsInput = true

	half := func(root *graph.Buffer, name string, lo bool) *graph.Buffer {
		row := 0
		if !lo {
			row = unit
		}
		return g.NewChild(name, root, graph.Region{Row: row, Col: 0, Rows: unit, Cols: 1})
	}

	// The illustration abstracts the operators; sizes are all that matter
	// to scheduling, so the "convolutions" are modeled by 1-input kernels
	// (the figure's unit accounting has no kernel matrices).
	conv1 := ops.NewScale(0.5)
	conv2 := ops.NewScale(2)
	e1 := g.NewBuffer("E1", shape2)
	e1p, e1pp := half(e1, "E1'", true), half(e1, "E1''", false)
	g.MustAddNode("C1", conv1, []graph.Arg{graph.SingleArg(im)},
		graph.Arg{Region: graph.FullRegion(shape2), Bufs: []*graph.Buffer{e1p, e1pp}})
	e2 := g.NewBuffer("E2", shape2)
	e2p, e2pp := half(e2, "E2'", true), half(e2, "E2''", false)
	g.MustAddNode("C2", conv2, []graph.Arg{graph.SingleArg(im)},
		graph.Arg{Region: graph.FullRegion(shape2), Bufs: []*graph.Buffer{e2p, e2pp}})

	e5 := g.NewBuffer("E5", shape2)
	e5p, e5pp := half(e5, "E5'", true), half(e5, "E5''", false)
	e6 := g.NewBuffer("E6", shape2)
	e6p, e6pp := half(e6, "E6'", true), half(e6, "E6''", false)
	remap := ops.NewRemap(-1, 0, -1e9, 1e9)
	g.MustAddNode("R1'", remap, []graph.Arg{graph.SingleArg(e1p)}, graph.SingleArg(e5p))
	g.MustAddNode("R2'", remap, []graph.Arg{graph.SingleArg(e2p)}, graph.SingleArg(e6p))
	g.MustAddNode("R1''", remap, []graph.Arg{graph.SingleArg(e1pp)}, graph.SingleArg(e5pp))
	g.MustAddNode("R2''", remap, []graph.Arg{graph.SingleArg(e2pp)}, graph.SingleArg(e6pp))

	e := g.NewBuffer("E", shape2)
	ep, epp := half(e, "E'", true), half(e, "E''", false)
	ep.IsOutput = true
	epp.IsOutput = true
	mx := ops.NewMaxCombine(2)
	g.MustAddNode("max1", mx, []graph.Arg{graph.SingleArg(e5p), graph.SingleArg(e6p)}, graph.SingleArg(ep))
	g.MustAddNode("max2", mx, []graph.Arg{graph.SingleArg(e5pp), graph.SingleArg(e6pp)}, graph.SingleArg(epp))

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
