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
// benchmark's compile_cold op. With per-call maps in the graph relations
// and the compile-time sched passes this took 1.29 M objects and 78.9 MB;
// dense per-call relations take it to about 0.17 M and 25 MB (0.19 M and
// 27 MB under -race), most of it template build and Clone. The budget
// leaves room for -race and fails long before the per-node maps come back.
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
	if bytes > 40e6 || objects > 250000 {
		t.Fatalf("one cold compile allocates %.2f MB in %d objects; budget 40 MB, 250000", float64(bytes)/1e6, objects)
	}
}
