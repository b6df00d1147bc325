package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/gpu"
	"repro/internal/templates"
)

// TestColdCompileAllocBudget is the tier-1 gate on what one cold compile
// allocates: build the Large CNN 640×480 template (7 444 operators) and
// Service.Compile it for the Tesla C870 on an empty plan cache, the
// benchmark's compile_cold op. Per-call maps in the graph relations and
// the compile-time sched passes once made this 1.29 M objects and 78.9 MB,
// dense relations 0.17 M and 25 MB. This template splits nothing on the
// C870, so the compile copies no part of it but the node list, and the
// build carves nodes and buffers from slabs: 53 k objects and 20 MB. Pin
// keys that are ordinals instead of per-buffer SHA-256 digests, flat
// per-buffer use and H2D lists, and operator parameters appended into the
// fingerprint stream halved that: 26.6 k objects and 18.7 MB, the same
// under -race. The object budget is 1.15× that: it fails if a per-buffer
// or per-node allocation in the compile passes (≈ 3.6 k convolutions,
// ≈ 11 k buffers) or a whole-graph copy (≈ 48 k objects) comes back.
func TestColdCompileAllocBudget(t *testing.T) {
	compile := func() {
		g, _, err := templates.CNN(templates.LargeCNN(640, 480))
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(WithDevice(gpu.TeslaC870()))
		if _, hit, err := svc.Compile(context.Background(), g); err != nil || hit {
			t.Fatalf("cold compile: hit=%v err=%v", hit, err)
		}
	}
	compile() // warm: lazy runtime and package state
	var bytes, objects uint64 = 1 << 62, 1 << 62
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		compile()
		runtime.ReadMemStats(&m1)
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
		objects = min(objects, m1.Mallocs-m0.Mallocs)
	}
	t.Logf("one cold compile: %.2f MB in %d objects", float64(bytes)/1e6, objects)
	if bytes > 24e6 || objects > 30600 {
		t.Fatalf("one cold compile allocates %.2f MB in %d objects; budget 24 MB, 30600", float64(bytes)/1e6, objects)
	}
}
