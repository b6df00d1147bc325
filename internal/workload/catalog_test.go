package workload_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/templates"
	"repro/internal/workload"
)

// direct is a template built by calling its constructor by hand, the way
// every front door did before the catalog.
type direct func() (*graph.Graph, exec.Inputs, error)

func edgeDirect(cfg templates.EdgeConfig, materialized bool, seed int64) direct {
	return func() (*graph.Graph, exec.Inputs, error) {
		g, bufs, err := templates.EdgeDetect(cfg)
		if err != nil || !materialized {
			return g, nil, err
		}
		return g, workload.EdgeInputs(bufs, seed), nil
	}
}

func cnnDirect(cfg templates.CNNConfig, materialized bool, seed int64) direct {
	return func() (*graph.Graph, exec.Inputs, error) {
		g, bufs, err := templates.CNN(cfg)
		if err != nil || !materialized {
			return g, nil, err
		}
		return g, workload.CNNInputs(bufs, seed), nil
	}
}

func sparseDirect(bfs bool, n int, materialized bool) direct {
	return func() (*graph.Graph, exec.Inputs, error) {
		s := workload.PowerLawCSR(2009, n, 16, 0.85)
		cfg := templates.SparseConfig{Structure: s, Iterations: 4}
		if bfs {
			g, bufs, err := templates.BFSLevels(cfg)
			if err != nil || !materialized {
				return g, nil, err
			}
			return g, workload.BFSInputs(bufs, s, 0), nil
		}
		g, bufs, err := templates.PageRank(cfg)
		if err != nil || !materialized {
			return g, nil, err
		}
		return g, workload.PageRankInputs(bufs, s), nil
	}
}

func edgeCfg(h, w, k, o int) templates.EdgeConfig {
	return templates.EdgeConfig{ImageH: h, ImageW: w, KernelSize: k, Orientations: o}
}

// TestCatalogMatchesConstructors is the catalog's safety net: every
// argument set a front door used to pass its constructors by hand builds,
// through Spec.Build, the same graph (by fingerprint) and — materialized
// — the same inputs, key for key.
func TestCatalogMatchesConstructors(t *testing.T) {
	type row struct {
		name string
		spec workload.Spec
		want direct
	}
	paperEdge := func(dim int) templates.EdgeConfig {
		cfg := edgeCfg(dim, dim, 16, 4)
		cfg.Combine = templates.CombineMax
		return cfg
	}
	rows := []row{
		// The HTTP API: edge defaults and explicit shape, the serve_mixed
		// CNN shapes, a materialized edge.
		{"http edge defaults", workload.Spec{Template: "edge", H: 256, W: 256}, edgeDirect(edgeCfg(256, 256, 5, 4), false, 0)},
		{"http edge explicit", workload.Spec{Template: "edge", H: 128, W: 96, Kernel: 7, Orientations: 6}, edgeDirect(edgeCfg(128, 96, 7, 6), false, 0)},
		{"http edge materialized", workload.Spec{Template: "edge", H: 256, W: 256, Seed: 3, Materialized: true}, edgeDirect(edgeCfg(256, 256, 5, 4), true, 3)},
		{"http cnn-small 6400x480", workload.Spec{Template: "cnn-small", H: 6400, W: 480}, cnnDirect(templates.SmallCNN(6400, 480), false, 0)},
		{"http cnn-small 640x480", workload.Spec{Template: "cnn-small", H: 640, W: 480}, cnnDirect(templates.SmallCNN(640, 480), false, 0)},
		{"http cnn-large 640x480", workload.Spec{Template: "cnn-large", H: 640, W: 480}, cnnDirect(templates.LargeCNN(640, 480), false, 0)},
		{"http cnn-small materialized", workload.Spec{Template: "cnn-small", H: 64, W: 48, Seed: 5, Materialized: true}, cnnDirect(templates.SmallCNN(64, 48), true, 5)},
		// The pool's health probe.
		{"probe edge", workload.Spec{Template: "edge", H: 32, W: 24, Kernel: 3, Orientations: 2}, edgeDirect(edgeCfg(32, 24, 3, 2), false, 0)},
		// planview: edge at the paper's kernel, its former cnn (W = 3H/4),
		// fig3 and the sparse templates.
		{"planview edge", workload.Spec{Template: "edge", H: 256, W: 256, Kernel: 16}, edgeDirect(edgeCfg(256, 256, 16, 4), false, 0)},
		{"planview cnn", workload.Spec{Template: "cnn-small", H: 512, W: 384}, cnnDirect(templates.SmallCNN(512, 384), false, 0)},
		{"planview fig3", workload.Spec{Template: "fig3"}, func() (*graph.Graph, exec.Inputs, error) {
			g, err := templates.EdgeDetectFig3(1)
			return g, nil, err
		}},
		{"planview pagerank", workload.Spec{Template: "pagerank", H: 512}, sparseDirect(false, 512, false)},
		{"planview bfs", workload.Spec{Template: "bfs", H: 512}, sparseDirect(true, 512, false)},
		{"pagerank materialized", workload.Spec{Template: "pagerank", H: 128, Materialized: true}, sparseDirect(false, 128, true)},
		{"bfs materialized", workload.Spec{Template: "bfs", H: 128, Materialized: true}, sparseDirect(true, 128, true)},
		// paperbench -ext smoke, -ext cache and the pipeline trace;
		// experiments.Partition's verification input.
		{"smoke edge 512", workload.Spec{Template: "edge", H: 512, W: 512, Kernel: 16, Orientations: 4}, edgeDirect(edgeCfg(512, 512, 16, 4), false, 0)},
		{"cache edge 256", workload.Spec{Template: "edge", H: 256, W: 256, Kernel: 16, Orientations: 4}, edgeDirect(edgeCfg(256, 256, 16, 4), false, 0)},
		{"cache edge 384", workload.Spec{Template: "edge", H: 384, W: 384, Kernel: 16, Orientations: 4}, edgeDirect(edgeCfg(384, 384, 16, 4), false, 0)},
		{"cache cnn-small", workload.Spec{Template: "cnn-small", H: 160, W: 120}, cnnDirect(templates.SmallCNN(160, 120), false, 0)},
		{"pipeline trace edge", workload.Spec{Template: "edge", H: 512, W: 512, Kernel: 16, Orientations: 4, Seed: 1, Materialized: true}, edgeDirect(edgeCfg(512, 512, 16, 4), true, 1)},
		{"partition verify", workload.Spec{Template: "cnn-large", H: 64, W: 48, Seed: 7, Materialized: true}, cnnDirect(templates.LargeCNN(64, 48), true, 7)},
	}
	// The eight rows of Tables 1 and 2, in PaperWorkloads order.
	paper := []direct{
		edgeDirect(paperEdge(1000), false, 0),
		edgeDirect(paperEdge(10000), false, 0),
		cnnDirect(templates.SmallCNN(640, 480), false, 0),
		cnnDirect(templates.SmallCNN(6400, 480), false, 0),
		cnnDirect(templates.SmallCNN(6400, 4800), false, 0),
		cnnDirect(templates.LargeCNN(640, 480), false, 0),
		cnnDirect(templates.LargeCNN(6400, 480), false, 0),
		cnnDirect(templates.LargeCNN(6400, 4800), false, 0),
	}
	wls := experiments.PaperWorkloads()
	if len(wls) != len(paper) {
		t.Fatalf("PaperWorkloads has %d rows, want %d", len(wls), len(paper))
	}
	for i, wl := range wls {
		g, err := wl.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := paper[i]()
		if err != nil {
			t.Fatal(err)
		}
		if g.Fingerprint() != want.Fingerprint() {
			t.Errorf("PaperWorkloads %s %s: graph differs from the direct constructor's", wl.Name, wl.Input)
		}
	}

	for _, r := range rows {
		g, in, err := r.spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		wg, win, err := r.want()
		if err != nil {
			t.Fatalf("%s: direct: %v", r.name, err)
		}
		if g.Fingerprint() != wg.Fingerprint() {
			t.Errorf("%s: graph differs from the direct constructor's", r.name)
		}
		if r.spec.Materialized != (in != nil) || len(in) != len(win) {
			t.Errorf("%s: %d inputs, want %d (materialized %t)", r.name, len(in), len(win), r.spec.Materialized)
			continue
		}
		for id, w := range win {
			if got, ok := in[id]; !ok || !got.Equal(w) {
				t.Errorf("%s: input %d differs from the direct inputs", r.name, id)
			}
		}
	}
}

func TestSpecRejectsUnknownTemplate(t *testing.T) {
	_, _, err := workload.Spec{Template: "warp", H: 8, W: 8}.Build()
	if err == nil {
		t.Fatal("unknown template must be an error")
	}
	for _, e := range workload.Catalog {
		if !strings.Contains(err.Error(), e.Name) {
			t.Errorf("error %q does not list catalog entry %q", err, e.Name)
		}
	}
	if _, _, err := (workload.Spec{Template: "pagerank"}).Build(); err == nil {
		t.Error("pagerank with no vertices must be an error")
	}
}

// Every catalog entry, materialized at a small size, runs through the one
// front door (core.Service) with the same outputs on a C870 and on a
// device too small for its largest operator, so the framework splits
// invisibly; both equal the CPU reference, and attaching an observer
// changes neither the outputs nor the charged stats.
func TestCatalogRunsBitIdenticalAcrossDevices(t *testing.T) {
	ctx := context.Background()
	for _, e := range workload.Catalog {
		t.Run(e.Name, func(t *testing.T) {
			spec := workload.Spec{Template: e.Name, H: 48, W: 36, Kernel: 7, Seed: 1, Materialized: true}
			if e.Name == "pagerank" || e.Name == "bfs" {
				spec.H = 256
			}
			g, in, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := exec.RunReference(g, in)
			if err != nil {
				t.Fatal(err)
			}
			// Nine tenths of the largest operator's footprint: no room to
			// run it whole.
			tiny := gpu.Custom("tiny", g.Stats().MaxFootprint*4*9/10)
			run := func(dev gpu.Spec, o *obs.Observer) (*exec.Report, int) {
				svc := core.NewService(core.WithDevice(dev), core.WithObserver(o))
				c, _, err := svc.Compile(ctx, g)
				if err != nil {
					t.Fatalf("%s: %v", dev.Name, err)
				}
				rep, err := svc.Execute(ctx, c, in)
				if err != nil {
					t.Fatalf("%s: %v", dev.Name, err)
				}
				return rep, c.Split.SplitNodes
			}
			big, bigSplit := run(gpu.TeslaC870(), nil)
			small, smallSplit := run(tiny, nil)
			observed, _ := run(tiny, obs.New())
			if bigSplit != 0 || smallSplit == 0 {
				t.Fatalf("split operators: %d on the C870, %d on the tiny device; want 0 and some", bigSplit, smallSplit)
			}
			if observed.Stats != small.Stats {
				t.Errorf("stats diverge with an observer:\nplain    %+v\nobserved %+v", small.Stats, observed.Stats)
			}
			if len(big.Outputs) != len(want) {
				t.Fatalf("%d outputs, want %d", len(big.Outputs), len(want))
			}
			for id, w := range want {
				if !big.Outputs[id].Equal(w) {
					t.Errorf("output %d differs from the CPU reference by %v", id, big.Outputs[id].MaxAbsDiff(w))
				}
				if !small.Outputs[id].Equal(big.Outputs[id]) || !observed.Outputs[id].Equal(big.Outputs[id]) {
					t.Errorf("output %d differs across devices or with an observer", id)
				}
			}
		})
	}
}
