package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/ops"
	"repro/internal/templates"
	"repro/internal/tensor"
)

// chain builds in(shape) -> op -> out(shape), with configurable names.
func chain(t *testing.T, prefix string, rows, cols int, op graph.Operator) *graph.Graph {
	t.Helper()
	g := graph.New()
	s := graph.Shape{Rows: rows, Cols: cols}
	in := g.NewBuffer(prefix+"in", s)
	out := g.NewBuffer(prefix+"out", s)
	g.MustAddNode(prefix+"op", op, []graph.Arg{graph.SingleArg(in)}, graph.SingleArg(out))
	return g
}

func TestFingerprintDeterministicAndNameInvariant(t *testing.T) {
	a := chain(t, "a", 8, 8, ops.NewScale(2))
	b := chain(t, "completely-different-names-", 8, 8, ops.NewScale(2))
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on node/buffer names")
	}
}

func TestFingerprintInvariantUnderClone(t *testing.T) {
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 32, ImageW: 24, KernelSize: 5, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.Clone().Fingerprint() != g.Fingerprint() {
		t.Fatal("clone changed the fingerprint")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := chain(t, "", 8, 8, ops.NewScale(2)).Fingerprint()
	cases := map[string]*graph.Graph{
		"shape":    chain(t, "", 8, 9, ops.NewScale(2)),
		"op param": chain(t, "", 8, 8, ops.NewScale(3)),
		"op kind":  chain(t, "", 8, 8, ops.NewTanh()),
	}
	for name, g := range cases {
		if g.Fingerprint() == base {
			t.Errorf("fingerprint ignores %s difference", name)
		}
	}
}

// spmvGraph builds A,x -> spmv -> y over the given structure, reporting
// A's footprint via the CSR estimator.
func spmvGraph(t *testing.T, s *tensor.CSR) *graph.Graph {
	t.Helper()
	g := graph.New()
	a := g.NewEstBuffer("A", graph.Shape{Rows: s.Rows, Cols: s.Cols},
		func(r graph.Region) int64 { return s.PackedFloats(r.Row, r.Row+r.Rows) },
		s.StructureDigest())
	a.IsInput = true
	x := g.NewBuffer("x", graph.Shape{Rows: s.Cols, Cols: 1})
	x.IsInput = true
	y := g.NewBuffer("y", graph.Shape{Rows: s.Rows, Cols: 1})
	y.IsOutput = true
	g.MustAddNode("spmv", ops.NewSpMV(s),
		[]graph.Arg{graph.SingleArg(a), graph.SingleArg(x)}, graph.SingleArg(y))
	return g
}

// TestFingerprintDistinguishesSparsity is the sparse-op regression test:
// two SpMV graphs with identical shapes and nnz but different sparsity
// patterns must not share a fingerprint (the plan cache and serve
// coalescing would otherwise merge jobs over different structures),
// while re-building over the same structure must.
func TestFingerprintDistinguishesSparsity(t *testing.T) {
	mk := func(cols []int32) *tensor.CSR {
		s, err := tensor.NewCSR(3, 4, []int32{0, 2, 3, 4}, cols, []float32{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := mk([]int32{0, 2, 1, 3})
	s1b := mk([]int32{0, 2, 1, 3})
	s2 := mk([]int32{1, 3, 0, 2}) // same shape, same nnz per row, different columns
	a, ab, b := spmvGraph(t, s1).Fingerprint(), spmvGraph(t, s1b).Fingerprint(), spmvGraph(t, s2).Fingerprint()
	if a != ab {
		t.Fatal("identical sparse graphs fingerprint differently")
	}
	if a == b {
		t.Fatal("fingerprint ignores CSR sparsity structure")
	}
	// The estimator digest alone must also matter: same op, different
	// buffer-level footprint identity.
	g := spmvGraph(t, s1)
	for _, buf := range g.Buffers() {
		if buf.EstDigest != "" {
			buf.EstDigest = "0000"
		}
	}
	if g.Fingerprint() == a {
		t.Fatal("fingerprint ignores buffer estimator digest")
	}
}

// TestFingerprintInvariantUnderScheduleBinding pins the design rule that
// a bound load-balancing schedule is not part of the graph's identity:
// schedules change wall time only, and plan reuse across schedules is
// keyed by the service config string instead.
func TestFingerprintInvariantUnderScheduleBinding(t *testing.T) {
	g := chain(t, "", 8, 8, ops.NewScale(2))
	base := g.Fingerprint()
	for _, n := range g.Nodes {
		n.Op = n.Op.(graph.ScheduleBinder).BindSchedule(loadbalance.WorkSteal{})
	}
	if g.Fingerprint() != base {
		t.Fatal("schedule binding changed the fingerprint")
	}
}

func TestFingerprintDistinguishesTemplates(t *testing.T) {
	edge := func(h, w, k int) string {
		g, _, err := templates.EdgeDetect(templates.EdgeConfig{
			ImageH: h, ImageW: w, KernelSize: k, Orientations: 4})
		if err != nil {
			t.Fatal(err)
		}
		return g.Fingerprint()
	}
	a, b := edge(32, 24, 5), edge(32, 24, 5)
	if a != b {
		t.Fatal("identical templates fingerprint differently")
	}
	if edge(48, 24, 5) == a {
		t.Fatal("fingerprint ignores image shape")
	}
	if edge(32, 24, 7) == a {
		t.Fatal("fingerprint ignores kernel size")
	}
	cg, _, err := templates.CNN(templates.SmallCNN(64, 48))
	if err != nil {
		t.Fatal(err)
	}
	if cg.Fingerprint() == a {
		t.Fatal("distinct templates collide")
	}
}

// renumbered rebuilds g node for node, creating gaps[i%len(gaps)]%4
// unused buffers before each of g's buffers: every buffer ID shifts while
// the order of IDs, the node IDs and the wiring stay as they were.
func renumbered(g *graph.Graph, gaps []byte) *graph.Graph {
	out := graph.New()
	m := make([]*graph.Buffer, g.NumBufferIDs())
	for i, b := range g.Buffers() {
		for k := 0; len(gaps) > 0 && k < int(gaps[i%len(gaps)]%4); k++ {
			out.NewBuffer("unused", graph.Shape{Rows: 1, Cols: 1})
		}
		var nb *graph.Buffer
		if b.IsRoot() {
			nb = out.NewBuffer(b.Name, b.Shape())
		} else {
			nb = out.NewChild(b.Name, m[b.Root.ID], b.Region)
		}
		nb.IsInput, nb.IsOutput = b.IsInput, b.IsOutput
		m[b.ID] = nb
	}
	mapArg := func(a graph.Arg) graph.Arg {
		bufs := make([]*graph.Buffer, len(a.Bufs))
		for i, b := range a.Bufs {
			bufs[i] = m[b.ID]
		}
		return graph.Arg{Region: a.Region, Bufs: bufs}
	}
	for _, n := range g.Nodes {
		in := make([]graph.Arg, len(n.In))
		for i, a := range n.In {
			in[i] = mapArg(a)
		}
		out.MustAddNode(n.Name, n.Op, in, mapArg(n.Out))
	}
	return out
}

// FuzzFingerprint checks the fingerprint's contract on seeded random DAGs
// (randomDAG): equal after Clone, equal after an order-preserving buffer
// renumbering, different after one live buffer's role flips or one arg's
// region shrinks. The seed corpus runs with the tier-1 tests; run with
// -fuzz=FuzzFingerprint to explore.
func FuzzFingerprint(f *testing.F) {
	f.Add(int64(0), []byte{1}, uint16(0), uint8(0))
	f.Add(int64(1), []byte{0, 3, 2}, uint16(5), uint8(1))
	f.Add(int64(7), []byte{2, 2}, uint16(11), uint8(2))
	f.Add(int64(42), []byte{}, uint16(3), uint8(3))
	f.Add(int64(-3), []byte{3, 0, 0, 1}, uint16(999), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, gaps []byte, which uint16, kind uint8) {
		g := randomDAG(seed)
		want := g.Fingerprint()
		if got := g.Clone().Fingerprint(); got != want {
			t.Fatalf("seed %d: Clone changed the fingerprint", seed)
		}
		if got := renumbered(g, gaps).Fingerprint(); got != want {
			t.Fatalf("seed %d: renumbering buffers with gaps %v changed the fingerprint", seed, gaps)
		}
		p := g.Clone()
		switch n := p.Nodes[int(which)%len(p.Nodes)]; kind % 3 {
		case 0: // through the registry: it must hand back the clone's own buffer
			b := p.Buffer(n.Out.Bufs[0].ID)
			b.IsOutput = !b.IsOutput
		case 1:
			b := n.In[0].Bufs[0]
			b.IsInput = !b.IsInput
		case 2:
			n.In[0].Region.Rows--
		}
		if p.Fingerprint() == want {
			t.Fatalf("seed %d: perturbation %d of node %d left the fingerprint unchanged", seed, kind%3, which)
		}
	})
}
