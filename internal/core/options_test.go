package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/split"
)

// A service assembled from options must behave identically to one built
// from the equivalent Config literal.
func TestOptionsMatchConfigLiteral(t *testing.T) {
	o := obs.New()
	cfg := Config{
		Device: gpu.Custom("opt", 1<<20), Planner: BaselinePlanner,
		Capacity: 9000, SplitMaxParts: 64, Obs: o,
	}
	byOpts := NewService(
		WithDevice(gpu.Custom("opt", 1<<20)),
		WithPlanner(BaselinePlanner),
		WithCapacity(9000),
		WithSplitMaxParts(64),
		WithObserver(o),
	)
	byCfg := NewService(WithConfig(cfg))
	g := edgeGraph(t, 40, 32, 5)
	if byOpts.CacheKey(g) != byCfg.CacheKey(g) {
		t.Fatalf("cache keys differ:\n opts %s\n cfg  %s", byOpts.CacheKey(g), byCfg.CacheKey(g))
	}
	a, _, err := byOpts.Compile(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := byCfg.Compile(context.Background(), edgeGraph(t, 40, 32, 5))
	if err != nil {
		t.Fatal(err)
	}
	if a.TransferFloats() != b.TransferFloats() || a.Graph.Fingerprint() != b.Graph.Fingerprint() {
		t.Fatal("options-built service compiled a different plan")
	}
}

// WithConfig overlays the full literal and later options still win.
func TestWithConfigOverlay(t *testing.T) {
	svc := NewService(
		WithConfig(Config{Device: gpu.Custom("base", 1<<20), Capacity: 5000}),
		WithCapacity(9000),
	)
	if got := svc.Engine().Capacity(); got != 9000 {
		t.Fatalf("capacity = %d, want the later option's 9000", got)
	}
}

// An infeasible compile must surface core.ErrInfeasible and the
// underlying scheduler sentinel through errors.Is.
func TestInfeasibleCompileWrapsSentinels(t *testing.T) {
	svc := NewService(WithDevice(gpu.Custom("tiny", 4096)), WithCapacity(3))
	_, _, err := svc.Compile(context.Background(), edgeGraph(t, 40, 32, 5))
	if err == nil {
		t.Fatal("capacity-3 compile succeeded")
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, not core.ErrInfeasible", err)
	}
	// The layer sentinel (split or sched, whichever failed) rides along
	// in the same chain.
	if !errors.Is(err, sched.ErrInfeasible) && !errors.Is(err, split.ErrInfeasible) {
		t.Fatalf("err = %v, missing the layer sentinel", err)
	}
}
