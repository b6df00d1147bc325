package templates

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// pathCSR builds the symmetric adjacency of an n-vertex path graph
// 0—1—…—(n-1), row-normalized (each row averages its neighbours): the
// simplest structure whose BFS levels from vertex 0 are exactly the
// vertex indices, and row-stochastic so PageRank iterates stay bounded.
func pathCSR(t *testing.T, n int) *tensor.CSR {
	t.Helper()
	rowPtr := make([]int32, n+1)
	var colIdx []int32
	var val []float32
	for r := 0; r < n; r++ {
		start := len(colIdx)
		for _, c := range []int{r - 1, r + 1} {
			if c >= 0 && c < n {
				colIdx = append(colIdx, int32(c))
			}
		}
		w := 1 / float32(len(colIdx)-start)
		for range colIdx[start:] {
			val = append(val, w)
		}
		rowPtr[r+1] = int32(len(colIdx))
	}
	s, err := tensor.NewCSR(n, n, rowPtr, colIdx, val)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// triCSR is a 4-vertex row-stochastic test structure with uneven row
// degrees (1,3,2,1 nonzeros).
func triCSR(t *testing.T) *tensor.CSR {
	t.Helper()
	s, err := tensor.NewCSR(4, 4,
		[]int32{0, 1, 4, 6, 7},
		[]int32{2, 0, 2, 3, 1, 3, 0},
		[]float32{1, 1. / 3, 1. / 3, 1. / 3, 0.5, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSparseConfigValidation(t *testing.T) {
	good := triCSR(t)
	rect, err := tensor.NewCSR(2, 3, []int32{0, 1, 2}, []int32{0, 2}, []float32{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []SparseConfig{
		{Structure: nil, Iterations: 1},
		{Structure: rect, Iterations: 1},
		{Structure: good, Iterations: 0},
	}
	for i, cfg := range cases {
		if _, _, err := PageRank(cfg); err == nil {
			t.Errorf("case %d: PageRank accepted invalid config %+v", i, cfg)
		}
		if _, _, err := BFSLevels(cfg); err == nil {
			t.Errorf("case %d: BFSLevels accepted invalid config %+v", i, cfg)
		}
	}
}

func TestPageRankStructure(t *testing.T) {
	s := triCSR(t)
	g, bufs, err := PageRank(SparseConfig{Structure: s, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	// One SpMV plus one damping remap per iteration.
	if got, want := len(g.Nodes), 6; got != want {
		t.Fatalf("node count = %d, want %d", got, want)
	}
	if !bufs.A.IsInput || !bufs.X.IsInput || !bufs.Out.IsOutput {
		t.Fatal("external buffers not marked input/output")
	}
	// The adjacency footprint is the packed CSR size, not the dense n×n
	// extent — the data-dependent footprint the planner consumes.
	n := s.Rows
	if got, want := bufs.A.Size(), s.PackedFloats(0, n); got != want {
		t.Fatalf("adjacency footprint = %d, want packed %d", got, want)
	}
	// A sub-range of the adjacency estimates only its own rows' nonzeros.
	if got, want := bufs.A.EstimateRegion(graph.Region{Row: 1, Col: 0, Rows: 2, Cols: n}),
		s.PackedFloats(1, 3); got != want {
		t.Fatalf("row-range footprint = %d, want %d", got, want)
	}
	// At realistic sizes the packed footprint is far below the dense
	// extent — the planner headroom the sparse domain exists to exploit.
	big := pathCSR(t, 256)
	_, bb, err := PageRank(SparseConfig{Structure: big, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dense := int64(256 * 256); bb.A.Size() >= dense/10 {
		t.Fatalf("packed footprint %d not well below dense %d", bb.A.Size(), dense)
	}
}

// pageRankRef is the scalar host reference: the same float32 operations
// in the same order as the SpMV and remap kernels.
func pageRankRef(s *tensor.CSR, iters int, alpha float32) []float32 {
	n := s.Rows
	x := make([]float32, n)
	for i := range x {
		x[i] = 1 / float32(n)
	}
	teleport := (1 - alpha) / float32(n)
	for t := 0; t < iters; t++ {
		next := make([]float32, n)
		for r := 0; r < n; r++ {
			var acc float32
			for k := s.RowPtr[r]; k < s.RowPtr[r+1]; k++ {
				acc += s.Val[k] * x[s.ColIdx[k]]
			}
			next[r] = alpha*acc + teleport
		}
		x = next
	}
	return x
}

func TestPageRankReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *tensor.CSR
	}{
		{"tri", triCSR(t)},
		{"path", pathCSR(t, 9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const iters = 12
			g, bufs, err := PageRank(SparseConfig{Structure: tc.s, Iterations: iters})
			if err != nil {
				t.Fatal(err)
			}
			out, err := exec.RunReference(g, pageRankInputs(bufs, tc.s))
			if err != nil {
				t.Fatal(err)
			}
			want := pageRankRef(tc.s, iters, 0.85)
			got := out[bufs.Out.ID]
			var sum float32
			for r := 0; r < tc.s.Rows; r++ {
				if got.At(r, 0) != want[r] {
					t.Fatalf("rank[%d] = %g, want %g", r, got.At(r, 0), want[r])
				}
				sum += got.At(r, 0)
			}
			// Row-stochastic adjacency keeps total rank ~1.
			if sum < 0.9 || sum > 1.1 {
				t.Fatalf("total rank drifted to %g", sum)
			}
		})
	}
}

// pageRankInputs mirrors workload.PageRankInputs without importing it
// (workload already imports templates).
func pageRankInputs(bufs *SparseBuffers, s *tensor.CSR) exec.Inputs {
	x := tensor.New(s.Rows, 1)
	x.Fill(1 / float32(s.Rows))
	return exec.Inputs{bufs.A.ID: s.Dense(), bufs.X.ID: x}
}

func TestBFSLevelsReference(t *testing.T) {
	const n = 8
	s := pathCSR(t, n)
	g, bufs, err := BFSLevels(SparseConfig{Structure: s, Iterations: n - 1})
	if err != nil {
		t.Fatal(err)
	}
	// 5 nodes per iteration: spmv, mask, visited-add, level-scale, level-add.
	if got, want := len(g.Nodes), 5*(n-1); got != want {
		t.Fatalf("node count = %d, want %d", got, want)
	}
	f := tensor.New(n, 1)
	f.Set(0, 0, 1)
	v := tensor.New(n, 1)
	v.Set(0, 0, 1)
	in := exec.Inputs{
		bufs.A.ID:       s.Dense(),
		bufs.X.ID:       f,
		bufs.Visited.ID: v,
		bufs.Levels.ID:  tensor.New(n, 1),
	}
	out, err := exec.RunReference(g, in)
	if err != nil {
		t.Fatal(err)
	}
	levels := out[bufs.Out.ID]
	for r := 0; r < n; r++ {
		// On the path from vertex 0, each vertex's BFS level is its index
		// (the source stays 0).
		if got := levels.At(r, 0); got != float32(r) {
			t.Fatalf("level[%d] = %g, want %d", r, got, r)
		}
	}
}

func TestBFSLevelsTruncatedIterations(t *testing.T) {
	const n = 8
	s := pathCSR(t, n)
	g, bufs, err := BFSLevels(SparseConfig{Structure: s, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := tensor.New(n, 1)
	f.Set(0, 0, 1)
	v := tensor.New(n, 1)
	v.Set(0, 0, 1)
	out, err := exec.RunReference(g, exec.Inputs{
		bufs.A.ID: s.Dense(), bufs.X.ID: f, bufs.Visited.ID: v, bufs.Levels.ID: tensor.New(n, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	levels := out[bufs.Out.ID]
	for r := 0; r < n; r++ {
		want := float32(r)
		if r > 3 {
			want = 0 // beyond the frontier horizon: unreached
		}
		if got := levels.At(r, 0); got != want {
			t.Fatalf("level[%d] = %g, want %g", r, got, want)
		}
	}
}
