package core

import (
	"context"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/templates"
)

func edgeGraph(t *testing.T, h, w, k int) *graph.Graph {
	t.Helper()
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: h, ImageW: w, KernelSize: k, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Compiling the same template twice must be bit-for-bit reproducible:
// identical fingerprints, byte-identical generated sources, equal
// transfer volumes.
func TestCompileDeterministic(t *testing.T) {
	compile := func() *Compiled {
		eng := NewEngine(Config{Device: gpu.Custom("det", int64(40*32*4*2))})
		c, err := eng.Compile(context.Background(), edgeGraph(t, 40, 32, 5))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := compile(), compile()
	if a.Graph.Fingerprint() != b.Graph.Fingerprint() {
		t.Fatal("split graphs fingerprint differently across identical compiles")
	}
	if a.Plan.TotalTransferFloats() != b.Plan.TotalTransferFloats() {
		t.Fatalf("transfer volumes differ: %d vs %d", a.Plan.TotalTransferFloats(), b.Plan.TotalTransferFloats())
	}
	if a.GenerateCUDA("edge") != b.GenerateCUDA("edge") {
		t.Fatal("generated CUDA sources differ")
	}
}

// sequentialAutoTune is the reference implementation the concurrent
// compileAutoTuned must match exactly: same candidates (clones of the
// unsplit graph at full/half/quarter targets), same divisor-order
// strict-minimum selection, run one at a time.
func sequentialAutoTune(e *Engine, g *graph.Graph) (*Compiled, error) {
	capacity := e.Capacity()
	graphs := make([]*graph.Graph, len(autotuneDivisors))
	graphs[0] = g
	for i := 1; i < len(autotuneDivisors); i++ {
		if capacity/autotuneDivisors[i] > 0 {
			graphs[i] = g.Clone()
		}
	}
	best, err := e.compileWith(context.Background(), nil, graphs[0], capacity, capacity)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(autotuneDivisors); i++ {
		if graphs[i] == nil {
			continue
		}
		cand, err := e.compileWith(context.Background(), nil, graphs[i], capacity/autotuneDivisors[i], capacity)
		if err != nil {
			continue
		}
		if cand.Plan.TotalTransferFloats() < best.Plan.TotalTransferFloats() {
			best = cand
		}
	}
	return best, nil
}

// The concurrent auto-tune must select the identical plan the sequential
// reference does — same fingerprint, same transfers, same generated code.
func TestAutoTuneParallelMatchesSequential(t *testing.T) {
	cfg := Config{Device: gpu.Custom("t", 1<<20), Capacity: 60000, AutoTuneSplit: true}
	build := func() *graph.Graph { return edgeGraph(t, 120, 120, 8) }

	seq, err := sequentialAutoTune(NewEngine(cfg), build())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		par, err := NewEngine(cfg).Compile(context.Background(), build())
		if err != nil {
			t.Fatal(err)
		}
		if par.Plan.TotalTransferFloats() != seq.Plan.TotalTransferFloats() {
			t.Fatalf("round %d: parallel transfers %d != sequential %d",
				round, par.Plan.TotalTransferFloats(), seq.Plan.TotalTransferFloats())
		}
		if par.Graph.Fingerprint() != seq.Graph.Fingerprint() {
			t.Fatalf("round %d: parallel selected a structurally different graph", round)
		}
		if par.GenerateCUDA("e") != seq.GenerateCUDA("e") {
			t.Fatalf("round %d: generated sources differ", round)
		}
	}
}

// The cache key must separate compilations that legitimately differ:
// device, planner, capacity, overlap, and shape all produce distinct keys.
func TestCacheKeyDiscriminates(t *testing.T) {
	base := Config{Device: gpu.Custom("k", 1<<20), Capacity: 9000}
	key := func(cfg Config, h int) string {
		return NewService(withConfig(cfg)).CacheKey(edgeGraph(t, h, 32, 5))
	}
	ref := key(base, 40)
	if key(base, 40) != ref {
		t.Fatal("key not deterministic")
	}
	perturb := map[string]string{}
	cfg := base
	cfg.Device = gpu.Custom("k2", 2<<20)
	perturb["device"] = key(cfg, 40)
	cfg = base
	cfg.Planner = BaselinePlanner
	perturb["planner"] = key(cfg, 40)
	cfg = base
	cfg.Capacity = 8000
	perturb["capacity"] = key(cfg, 40)
	cfg = base
	cfg.AutoTuneSplit = true
	perturb["autotune"] = key(cfg, 40)
	cfg = base
	cfg.Schedule = "worksteal"
	perturb["schedule"] = key(cfg, 40)
	perturb["shape"] = key(base, 48)
	for name, k := range perturb {
		if k == ref {
			t.Errorf("cache key ignores %s difference", name)
		}
	}
	// The empty schedule IS the static schedule: both must share cache
	// entries, or every default-config caller would compile twice.
	cfg = base
	cfg.Schedule = "static"
	if key(cfg, 40) != ref {
		t.Error("explicit static schedule does not share the default's cache key")
	}
}
