package templates

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// SparseConfig parametrizes the sparse graph-analytics templates
// (PageRank and BFS levels). Unlike the dense templates, the graph's
// memory behaviour is data-dependent: the adjacency matrix's footprint
// is its packed CSR size (a function of nnz, not of the logical n×n
// extent), which the template reports to the planner through a buffer
// footprint estimator (graph.Buffer.Est).
type SparseConfig struct {
	// Structure is the adjacency matrix's sparsity pattern. Values flow
	// separately, as the logical dense A input buffer.
	Structure *tensor.CSR
	// Iterations is the number of power-iteration / frontier-expansion
	// rounds (>= 1).
	Iterations int
	// Alpha is the PageRank damping factor (0 < Alpha < 1; 0 = 0.85).
	Alpha float32
}

func (cfg *SparseConfig) validate() error {
	if cfg.Structure == nil {
		return fmt.Errorf("templates: sparse config needs a CSR structure")
	}
	if cfg.Structure.Rows != cfg.Structure.Cols {
		return fmt.Errorf("templates: adjacency matrix must be square, got %dx%d",
			cfg.Structure.Rows, cfg.Structure.Cols)
	}
	if cfg.Iterations < 1 {
		return fmt.Errorf("templates: iterations must be >= 1, got %d", cfg.Iterations)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.85
	}
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		return fmt.Errorf("templates: alpha must be in (0,1), got %g", cfg.Alpha)
	}
	return nil
}

// SparseBuffers exposes a sparse template's external buffers.
type SparseBuffers struct {
	// A is the adjacency-value input: logically n×n dense, footprint
	// estimated as packed CSR.
	A *graph.Buffer
	// X is the initial rank vector (PageRank) or initial frontier (BFS).
	X *graph.Buffer
	// Visited and Levels are BFS-only state inputs (nil for PageRank).
	Visited *graph.Buffer
	Levels  *graph.Buffer
	// Out is the template output: final ranks or final levels.
	Out *graph.Buffer
}

// newAdjacency creates the adjacency-value buffer with its CSR footprint
// estimator: region footprints are the packed size of the covered rows.
func newAdjacency(g *graph.Graph, s *tensor.CSR) *graph.Buffer {
	a := g.NewEstBuffer("A", graph.Shape{Rows: s.Rows, Cols: s.Cols},
		func(r graph.Region) int64 { return s.PackedFloats(r.Row, r.Row+r.Rows) },
		s.StructureDigest())
	a.IsInput = true
	return a
}

// PageRank builds a power-iteration PageRank template over the
// configured structure:
//
//	for t in 1..T:  y = A·x ;  x = α·y + (1−α)/n
//
// (the damping redistribution applied elementwise by a remap). Each
// SpMV's row work is that row's nonzero count — the irregular load the
// load-balancing schedules absorb.
func PageRank(cfg SparseConfig) (*graph.Graph, *SparseBuffers, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	s := cfg.Structure
	n := s.Rows
	g := graph.New()
	a := newAdjacency(g, s)
	vec := graph.Shape{Rows: n, Cols: 1}
	x := g.NewBuffer("x0", vec)
	x.IsInput = true

	bufs := &SparseBuffers{A: a, X: x}
	cur := x
	teleport := (1 - cfg.Alpha) / float32(n)
	spmv, damp := ops.NewSpMV(s), ops.NewRemap(cfg.Alpha, teleport, -1e30, 1e30)
	for t := 1; t <= cfg.Iterations; t++ {
		y := g.NewBuffer(name("y", t), vec)
		g.MustAddNode(name("spmv", t), spmv,
			[]graph.Arg{graph.SingleArg(a), graph.SingleArg(cur)}, graph.SingleArg(y))
		next := g.NewBuffer(name("x", t), vec)
		g.MustAddNode(name("damp", t), damp,
			[]graph.Arg{graph.SingleArg(y)}, graph.SingleArg(next))
		cur = next
	}
	cur.IsOutput = true
	bufs.Out = cur

	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return g, bufs, nil
}

// BFSLevels builds a frontier-expansion BFS template computing the level
// (distance from the source frontier) of every vertex reached within T
// iterations:
//
//	for t in 1..T:
//	  af = A·f                    (candidate reach via in-edges)
//	  f' = mask(af, visited)      (newly reached, unvisited vertices)
//	  visited += f'
//	  levels  += t·f'
//
// Inputs are the adjacency values, the one-hot source frontier, and
// zeroed visited/levels vectors (the source itself is marked visited at
// level 0 by the caller's inputs).
func BFSLevels(cfg SparseConfig) (*graph.Graph, *SparseBuffers, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	s := cfg.Structure
	n := s.Rows
	g := graph.New()
	a := newAdjacency(g, s)
	vec := graph.Shape{Rows: n, Cols: 1}
	f := g.NewBuffer("f0", vec)
	f.IsInput = true
	visited := g.NewBuffer("v0", vec)
	visited.IsInput = true
	levels := g.NewBuffer("l0", vec)
	levels.IsInput = true

	bufs := &SparseBuffers{A: a, X: f, Visited: visited, Levels: levels}
	spmv, mask, visit, level := ops.NewSpMV(s), ops.NewFrontierMask(), ops.NewAddN(2), ops.NewAddN(2)
	for t := 1; t <= cfg.Iterations; t++ {
		af := g.NewBuffer(name("af", t), vec)
		g.MustAddNode(name("spmv", t), spmv,
			[]graph.Arg{graph.SingleArg(a), graph.SingleArg(f)}, graph.SingleArg(af))
		nf := g.NewBuffer(name("f", t), vec)
		g.MustAddNode(name("mask", t), mask,
			[]graph.Arg{graph.SingleArg(af), graph.SingleArg(visited)}, graph.SingleArg(nf))
		nv := g.NewBuffer(name("v", t), vec)
		g.MustAddNode(name("visit", t), visit,
			[]graph.Arg{graph.SingleArg(visited), graph.SingleArg(nf)}, graph.SingleArg(nv))
		sl := g.NewBuffer(name("sl", t), vec)
		// The scale is the level number, so each iteration has its own.
		g.MustAddNode(name("scale", t), ops.NewScale(float32(t)),
			[]graph.Arg{graph.SingleArg(nf)}, graph.SingleArg(sl))
		nl := g.NewBuffer(name("l", t), vec)
		g.MustAddNode(name("level", t), level,
			[]graph.Arg{graph.SingleArg(levels), graph.SingleArg(sl)}, graph.SingleArg(nl))
		f, visited, levels = nf, nv, nl
	}
	levels.IsOutput = true
	bufs.Out = levels

	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return g, bufs, nil
}
