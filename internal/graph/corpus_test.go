package graph_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/split"
	"repro/internal/templates"
	"repro/internal/workload"
)

// corpusGraph is one named graph of the shared test corpus.
type corpusGraph struct {
	name  string
	build func() (*graph.Graph, error)
}

// tinyCNN is a three-conv network small enough to split at tight
// capacities: its layer-4 and layer-6 convolutions read produced buffers,
// so splitting them creates the halo strips no paper template creates at
// a capacity a test can afford.
func tinyCNN() templates.CNNConfig {
	return templates.CNNConfig{Name: "tiny CNN", ImageH: 96, ImageW: 64, InPlanes: 2,
		Layers: []templates.CNNLayer{
			{Kind: templates.LayerConv, OutPlanes: 3, KernelSize: 5},
			{Kind: templates.LayerTanh},
			{Kind: templates.LayerSubsample, Factor: 2},
			{Kind: templates.LayerConv, OutPlanes: 3, KernelSize: 5},
			{Kind: templates.LayerTanh},
			{Kind: templates.LayerConv, OutPlanes: 2, KernelSize: 3},
		}}
}

// maxFootprint returns the largest single-node footprint of g.
func maxFootprint(g *graph.Graph) int64 {
	var m int64
	for _, n := range g.Nodes {
		m = max(m, n.Footprint())
	}
	return m
}

// splitAt returns build followed by split.Apply at num/den of the graph's
// largest node footprint.
func splitAt(build func() (*graph.Graph, error), num, den int64) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) {
		g, err := build()
		if err != nil {
			return nil, err
		}
		_, err = split.Apply(g, split.Options{Capacity: maxFootprint(g) * num / den})
		return g, err
	}
}

func cnn(cfg templates.CNNConfig) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) {
		g, _, err := templates.CNN(cfg)
		return g, err
	}
}

func edge(h, w, k int) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) {
		g, _, err := templates.EdgeDetect(templates.EdgeConfig{
			ImageH: h, ImageW: w, KernelSize: k, Orientations: 4})
		return g, err
	}
}

func sparse(bfs bool) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) {
		cfg := templates.SparseConfig{Structure: workload.PowerLawCSR(2009, 256, 16, 0.85), Iterations: 4}
		build := templates.PageRank
		if bfs {
			build = templates.BFSLevels
		}
		g, _, err := build(cfg)
		return g, err
	}
}

// corpus lists every paper workload (Large CNN 640×480 among them) before
// and after a split that turns the largest operators' outputs into
// multi-buffer args, the four fixed template shapes of the benchmark's
// serving workload, the Fig. 3 graph, the sparse templates (whose buffers
// carry estimator digests), and the tiny CNN split tightly enough to
// create halo strips.
func corpus() []corpusGraph {
	var out []corpusGraph
	for _, w := range experiments.PaperWorkloads() {
		name := "paper/" + w.Name + " " + w.Input
		out = append(out,
			corpusGraph{name, w.Build},
			corpusGraph{name + "/split", splitAt(w.Build, 99, 100)})
	}
	return append(out,
		corpusGraph{"serve/edge 10000x10000 k5", edge(10000, 10000, 5)},
		corpusGraph{"serve/edge 256x256 k5", edge(256, 256, 5)},
		corpusGraph{"serve/cnn-small 6400x480", cnn(templates.SmallCNN(6400, 480))},
		corpusGraph{"serve/cnn-small 640x480", cnn(templates.SmallCNN(640, 480))},
		corpusGraph{"fig3", func() (*graph.Graph, error) { return templates.EdgeDetectFig3(1) }},
		corpusGraph{"sparse/pagerank 256", sparse(false)},
		corpusGraph{"sparse/pagerank 256/split", splitAt(sparse(false), 60, 100)},
		corpusGraph{"sparse/bfs 256", sparse(true)},
		corpusGraph{"tiny-cnn/split-15", splitAt(cnn(tinyCNN()), 15, 100)},
		corpusGraph{"tiny-cnn/split-8", splitAt(cnn(tinyCNN()), 8, 100)},
	)
}

// eachCorpusGraph builds every corpus graph and hands it to f.
func eachCorpusGraph(t *testing.T, f func(t *testing.T, name string, g *graph.Graph)) {
	t.Helper()
	for _, c := range corpus() {
		g, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		f(t, c.name, g)
	}
}
