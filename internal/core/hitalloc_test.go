//go:build !race

package core

import (
	"context"
	"testing"

	"repro/internal/gpu"
)

// TestWarmCompileHitAllocatesOnlyItsKey requires a plan-cache hit with
// observability off to allocate nothing beyond computing its cache key:
// in particular no trace-argument map for a tracer that is not there.
// The race detector makes sync.Pool (and so fmt) drop objects at random,
// which makes allocation counts noisy, hence the build constraint.
func TestWarmCompileHitAllocatesOnlyItsKey(t *testing.T) {
	g := edgeGraph(t, 40, 32, 5)
	svc := NewService(WithDevice(gpu.TeslaC870()))
	if _, _, err := svc.Compile(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	key := testing.AllocsPerRun(20, func() { _ = svc.CacheKey(g) })
	hit := testing.AllocsPerRun(20, func() {
		if _, hit, err := svc.Compile(context.Background(), g); err != nil || !hit {
			t.Fatalf("warm compile: hit=%v err=%v", hit, err)
		}
	})
	if hit > key {
		t.Fatalf("a warm hit allocates %v objects, its cache key %v: the hit path allocates %v of its own",
			hit, key, hit-key)
	}
}
