package workload

import (
	"fmt"
	"strings"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/templates"
	"repro/internal/tensor"
)

// Spec names one template instance: a catalog entry plus the integers
// that parametrize it. It is what every front door — the HTTP API, the
// commands, the experiments — builds a template from.
type Spec struct {
	// Template is a Catalog entry's name.
	Template string
	// H and W are the input height and width; pagerank and bfs read H as
	// the vertex count, and fig3 reads neither.
	H, W int
	// Kernel and Orientations shape the edge template (defaults 5 and 4).
	Kernel, Orientations int
	// Seed seeds the synthetic inputs.
	Seed int64
	// Materialized builds the seeded inputs too; otherwise Build returns
	// nil inputs, for accounting-mode runs.
	Materialized bool
}

// Entry is one catalog template.
type Entry struct {
	Name, Doc string
	build     func(Spec) (*graph.Graph, exec.Inputs, error)
}

// Catalog lists every template a Spec can name.
var Catalog = []Entry{
	{"edge", "find_edges (§4.1.1) on an HxW image, max combine", edge},
	{"cnn-small", "the Small CNN (§4.1.2) on an HxW input", cnn(templates.SmallCNN)},
	{"cnn-large", "the Large CNN (§4.1.2) on an HxW input", cnn(templates.LargeCNN)},
	{"fig3", "Fig. 3's pre-split edge-detection illustration at one float per unit (H and W unused)", fig3},
	{"pagerank", "4 PageRank iterations over a power-law graph of H vertices", sparse(PageRank)},
	{"bfs", "4 BFS-level expansions over a power-law graph of H vertices", sparse(BFS)},
}

// Names lists the catalog's template names, comma-separated.
func Names() string {
	names := make([]string, len(Catalog))
	for i, e := range Catalog {
		names[i] = e.Name
	}
	return strings.Join(names, ", ")
}

// Usage lists the catalog one entry per line, for a -template flag's help.
func Usage() string {
	var b strings.Builder
	for _, e := range Catalog {
		fmt.Fprintf(&b, "\n  %-9s %s", e.Name, e.Doc)
	}
	return b.String()
}

// Build instantiates the template the spec names: its graph, and its
// seeded inputs when Materialized (nil otherwise).
func (s Spec) Build() (*graph.Graph, exec.Inputs, error) {
	for _, e := range Catalog {
		if e.Name == s.Template {
			return e.build(s)
		}
	}
	return nil, nil, fmt.Errorf("unknown template %q (want one of %s)", s.Template, Names())
}

func edge(s Spec) (*graph.Graph, exec.Inputs, error) {
	cfg := templates.EdgeConfig{ImageH: s.H, ImageW: s.W, KernelSize: s.Kernel, Orientations: s.Orientations}
	if cfg.KernelSize == 0 {
		cfg.KernelSize = 5
	}
	if cfg.Orientations == 0 {
		cfg.Orientations = 4
	}
	g, bufs, err := templates.EdgeDetect(cfg)
	if err != nil || !s.Materialized {
		return g, nil, err
	}
	return g, EdgeInputs(bufs, s.Seed), nil
}

func cnn(config func(h, w int) templates.CNNConfig) func(Spec) (*graph.Graph, exec.Inputs, error) {
	return func(s Spec) (*graph.Graph, exec.Inputs, error) {
		g, bufs, err := templates.CNN(config(s.H, s.W))
		if err != nil || !s.Materialized {
			return g, nil, err
		}
		return g, CNNInputs(bufs, s.Seed), nil
	}
}

func fig3(s Spec) (*graph.Graph, exec.Inputs, error) {
	g, err := templates.EdgeDetectFig3(1)
	if err != nil || !s.Materialized {
		return g, nil, err
	}
	in := exec.Inputs{}
	for i, b := range g.InputBuffers() {
		in[b.ID] = RandomTensor(s.Seed+int64(i), b.Shape().Rows, b.Shape().Cols, 1)
	}
	return g, in, nil
}

// sparse builds a sparse entry over its default structure.
func sparse(build func(*tensor.CSR, int, bool) (*graph.Graph, exec.Inputs, error)) func(Spec) (*graph.Graph, exec.Inputs, error) {
	return func(s Spec) (*graph.Graph, exec.Inputs, error) {
		if s.H <= 0 {
			return nil, nil, fmt.Errorf("%s: the vertex count h must be positive, got %d", s.Template, s.H)
		}
		return build(PowerLawCSR(2009, s.H, 16, 0.85), 4, s.Materialized)
	}
}

// PageRank builds the PageRank template over the given adjacency
// structure, with PageRankInputs when materialized. The pagerank entry
// is this over a power-law structure; experiments that compare
// structures call it directly.
func PageRank(s *tensor.CSR, iterations int, materialized bool) (*graph.Graph, exec.Inputs, error) {
	g, bufs, err := templates.PageRank(templates.SparseConfig{Structure: s, Iterations: iterations})
	if err != nil || !materialized {
		return g, nil, err
	}
	return g, PageRankInputs(bufs, s), nil
}

// BFS is PageRank's counterpart for the BFS-levels template, sourced at
// vertex 0.
func BFS(s *tensor.CSR, iterations int, materialized bool) (*graph.Graph, exec.Inputs, error) {
	g, bufs, err := templates.BFSLevels(templates.SparseConfig{Structure: s, Iterations: iterations})
	if err != nil || !materialized {
		return g, nil, err
	}
	return g, BFSInputs(bufs, s, 0), nil
}
