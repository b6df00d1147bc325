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

// withConfig overlays a complete Config, so a test can perturb one field
// of a literal at a time.
func withConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// A service assembled from options must behave identically to one built
// from the equivalent Config literal.
func TestOptionsMatchConfigLiteral(t *testing.T) {
	o := obs.New()
	cfg := Config{
		Device: gpu.Custom("opt", 1<<20), Planner: BaselinePlanner,
		Capacity: 9000, Obs: o,
	}
	byOpts := NewService(
		WithDevice(gpu.Custom("opt", 1<<20)),
		WithPlanner(BaselinePlanner),
		WithCapacity(9000),
		WithObserver(o),
	)
	byCfg := NewService(withConfig(cfg))
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
	if a.Plan.TotalTransferFloats() != b.Plan.TotalTransferFloats() || a.Graph.Fingerprint() != b.Graph.Fingerprint() {
		t.Fatal("options-built service compiled a different plan")
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
