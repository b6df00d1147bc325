package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/templates"
)

// The graph-analysis passes every cold compile runs, on the Large CNN
// 640×480 (7 444 operators, 11 335 buffers).

func largeCNN(b *testing.B) *graph.Graph {
	b.Helper()
	g, _, err := templates.CNN(templates.LargeCNN(640, 480))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return g
}

func BenchmarkTopoSortLargeCNN(b *testing.B) {
	g := largeCNN(b)
	for i := 0; i < b.N; i++ {
		if _, err := g.TopoSort(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeps(b *testing.B) {
	g := largeCNN(b)
	for i := 0; i < b.N; i++ {
		g.Deps()
	}
}

func BenchmarkValidate(b *testing.B) {
	g := largeCNN(b)
	for i := 0; i < b.N; i++ {
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	g := largeCNN(b)
	for i := 0; i < b.N; i++ {
		g.Fingerprint()
	}
}
