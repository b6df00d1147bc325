package graph

import (
	"strings"
	"testing"

	"repro/internal/tensor"
)

// fakeOp is a minimal operator for graph-level tests: n equal-shaped
// inputs, identity output of input 0's shape.
type fakeOp struct{ n int }

func (f *fakeOp) Kind() string { return "fake" }
func (f *fakeOp) OutShape(in []Shape) (Shape, error) {
	return in[0], nil
}
func (f *fakeOp) Run(in []*tensor.Tensor, out *tensor.Tensor) error {
	out.CopyFrom(in[0])
	return nil
}
func (f *fakeOp) FLOPs(in []Shape, out Shape) int64 { return out.Size() }
func (f *fakeOp) InputRegion(i int, out Region, in []Shape) (Region, bool) {
	return out, false
}

func chain(t *testing.T, n int) (*Graph, []*Buffer) {
	t.Helper()
	g := New()
	s := Shape{Rows: 4, Cols: 4}
	bufs := []*Buffer{g.NewBuffer("in", s)}
	bufs[0].IsInput = true
	for i := 1; i <= n; i++ {
		b := g.NewBuffer("t", s)
		g.MustAddNode("op", &fakeOp{n: 1}, []Arg{SingleArg(bufs[i-1])}, SingleArg(b))
		bufs = append(bufs, b)
	}
	bufs[len(bufs)-1].IsOutput = true
	return g, bufs
}

func TestRegionContainsIntersect(t *testing.T) {
	r := Region{Row: 0, Col: 0, Rows: 10, Cols: 10}
	if !r.Contains(Region{Row: 2, Col: 3, Rows: 5, Cols: 5}) {
		t.Fatal("Contains failed")
	}
	if r.Contains(Region{Row: 8, Col: 0, Rows: 5, Cols: 5}) {
		t.Fatal("Contains should fail for overflow")
	}
	got, ok := (Region{Row: 0, Col: 0, Rows: 5, Cols: 5}).Intersect(Region{Row: 3, Col: 3, Rows: 5, Cols: 5})
	if !ok || got != (Region{Row: 3, Col: 3, Rows: 2, Cols: 2}) {
		t.Fatalf("Intersect = %v ok=%v", got, ok)
	}
	if _, ok := (Region{Row: 0, Col: 0, Rows: 2, Cols: 2}).Intersect(Region{Row: 5, Col: 5, Rows: 2, Cols: 2}); ok {
		t.Fatal("disjoint regions must not intersect")
	}
}

func TestBufferSizes(t *testing.T) {
	g := New()
	b := g.NewBuffer("x", Shape{Rows: 3, Cols: 5})
	if b.Size() != 15 || b.Bytes() != 60 {
		t.Fatalf("size %d bytes %d", b.Size(), b.Bytes())
	}
	if !b.IsRoot() {
		t.Fatal("fresh buffer must be its own root")
	}
	c := g.NewChild("xc", b, Region{Row: 1, Col: 0, Rows: 2, Cols: 5})
	if c.IsRoot() || c.Root != b || c.Size() != 10 {
		t.Fatalf("child wrong: root=%v size=%d", c.Root, c.Size())
	}
}

func TestNewChildOutsideRootPanics(t *testing.T) {
	g := New()
	b := g.NewBuffer("x", Shape{Rows: 3, Cols: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.NewChild("bad", b, Region{Row: 2, Col: 0, Rows: 3, Cols: 3})
}

func TestAddNodeShapeValidation(t *testing.T) {
	g := New()
	a := g.NewBuffer("a", Shape{Rows: 2, Cols: 2})
	bad := g.NewBuffer("bad", Shape{Rows: 3, Cols: 3})
	if _, err := g.AddNode("n", &fakeOp{n: 1}, []Arg{SingleArg(a)}, SingleArg(bad)); err == nil {
		t.Fatal("mismatched output shape must error")
	}
}

func TestFootprint(t *testing.T) {
	g := New()
	a := g.NewBuffer("a", Shape{Rows: 2, Cols: 2})
	b := g.NewBuffer("b", Shape{Rows: 2, Cols: 2})
	n := g.MustAddNode("n", &fakeOp{n: 1}, []Arg{SingleArg(a)}, SingleArg(b))
	if n.Footprint() != 8 {
		t.Fatalf("footprint = %d, want 8", n.Footprint())
	}
	// A buffer appearing as both input and output counts once.
	m := g.MustAddNode("m", &fakeOp{n: 2}, []Arg{SingleArg(b), SingleArg(b)}, SingleArg(a))
	if m.Footprint() != 8 {
		t.Fatalf("dedup footprint = %d, want 8", m.Footprint())
	}
}

func TestTopoSortChain(t *testing.T) {
	g, _ := chain(t, 5)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("order len %d", len(order))
	}
	if !g.IsTopoOrder(order) {
		t.Fatal("TopoSort result not a topo order")
	}
	// Reversed order must be rejected.
	rev := make([]*Node, len(order))
	for i, n := range order {
		rev[len(order)-1-i] = n
	}
	if g.IsTopoOrder(rev) {
		t.Fatal("reversed order should not validate")
	}
}

func TestValidateOK(t *testing.T) {
	g, _ := chain(t, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsDoubleProducer(t *testing.T) {
	g := New()
	in := g.NewBuffer("in", Shape{Rows: 2, Cols: 2})
	in.IsInput = true
	out := g.NewBuffer("out", Shape{Rows: 2, Cols: 2})
	g.MustAddNode("p1", &fakeOp{n: 1}, []Arg{SingleArg(in)}, SingleArg(out))
	g.MustAddNode("p2", &fakeOp{n: 1}, []Arg{SingleArg(in)}, SingleArg(out))
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "produced by both") {
		t.Fatalf("want double-producer error, got %v", err)
	}
}

func TestValidateDetectsMissingProducer(t *testing.T) {
	g := New()
	orphan := g.NewBuffer("orphan", Shape{Rows: 2, Cols: 2})
	out := g.NewBuffer("out", Shape{Rows: 2, Cols: 2})
	g.MustAddNode("n", &fakeOp{n: 1}, []Arg{SingleArg(orphan)}, SingleArg(out))
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "no producer") {
		t.Fatalf("want missing-producer error, got %v", err)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	g := New()
	a := g.NewBuffer("a", Shape{Rows: 2, Cols: 2})
	b := g.NewBuffer("b", Shape{Rows: 2, Cols: 2})
	g.MustAddNode("n1", &fakeOp{n: 1}, []Arg{SingleArg(a)}, SingleArg(b))
	g.MustAddNode("n2", &fakeOp{n: 1}, []Arg{SingleArg(b)}, SingleArg(a))
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestArgCovered(t *testing.T) {
	g := New()
	root := g.NewBuffer("r", Shape{Rows: 10, Cols: 4})
	top := g.NewChild("t", root, Region{Row: 0, Col: 0, Rows: 5, Cols: 4})
	bot := g.NewChild("b", root, Region{Row: 5, Col: 0, Rows: 5, Cols: 4})
	full := Arg{Region: FullRegion(Shape{Rows: 10, Cols: 4}), Bufs: []*Buffer{top, bot}}
	if !full.Covered() {
		t.Fatal("exact tiling must cover")
	}
	gap := Arg{Region: FullRegion(Shape{Rows: 10, Cols: 4}), Bufs: []*Buffer{top}}
	if gap.Covered() {
		t.Fatal("half tiling must not cover")
	}
	// Overlapping buffers still cover.
	mid := g.NewChild("m", root, Region{Row: 3, Col: 0, Rows: 7, Cols: 4})
	over := Arg{Region: FullRegion(Shape{Rows: 10, Cols: 4}), Bufs: []*Buffer{top, mid}}
	if !over.Covered() {
		t.Fatal("overlapping cover must pass")
	}
}

func TestProducerDeps(t *testing.T) {
	g, bufs := chain(t, 3)
	prod := g.Producer()
	if prod[bufs[1].ID] == nil || prod[bufs[0].ID] != nil {
		t.Fatal("Producer map wrong")
	}
	deps := g.Deps()
	if len(deps[g.Nodes[0].ID]) != 0 || len(deps[g.Nodes[2].ID]) != 1 {
		t.Fatal("Deps wrong")
	}
}

func TestStats(t *testing.T) {
	g, _ := chain(t, 3)
	s := g.Stats()
	if s.Operators != 3 || s.DataStructures != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TotalFloats != 4*16 {
		t.Fatalf("TotalFloats = %d", s.TotalFloats)
	}
	if s.MaxFootprint != 32 {
		t.Fatalf("MaxFootprint = %d", s.MaxFootprint)
	}
}

func TestLiveBuffersExcludesOrphans(t *testing.T) {
	g, _ := chain(t, 2)
	g.NewBuffer("unused", Shape{Rows: 1, Cols: 1})
	if len(g.LiveBuffers()) != 3 {
		t.Fatalf("live buffers = %d, want 3", len(g.LiveBuffers()))
	}
	if len(g.Buffers()) != 4 {
		t.Fatalf("all buffers = %d, want 4", len(g.Buffers()))
	}
}

func TestInputOutputBuffers(t *testing.T) {
	g, bufs := chain(t, 2)
	ins, outs := g.InputBuffers(), g.OutputBuffers()
	if len(ins) != 1 || ins[0] != bufs[0] {
		t.Fatal("InputBuffers wrong")
	}
	if len(outs) != 1 || outs[0] != bufs[2] {
		t.Fatal("OutputBuffers wrong")
	}
}

func TestRemoveNode(t *testing.T) {
	g, _ := chain(t, 3)
	n := g.Nodes[1]
	g.RemoveNode(n)
	if len(g.Nodes) != 2 {
		t.Fatalf("nodes after remove = %d", len(g.Nodes))
	}
	for _, m := range g.Nodes {
		if m == n {
			t.Fatal("node still present")
		}
	}
}

func TestDOT(t *testing.T) {
	g, _ := chain(t, 2)
	dot := g.DOTAnnotated("test", nil)
	for _, want := range []string{"digraph", "ellipse", "box", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestDiamondTopo(t *testing.T) {
	g := New()
	s := Shape{Rows: 2, Cols: 2}
	in := g.NewBuffer("in", s)
	in.IsInput = true
	l := g.NewBuffer("l", s)
	r := g.NewBuffer("r", s)
	out := g.NewBuffer("out", s)
	out.IsOutput = true
	g.MustAddNode("left", &fakeOp{n: 1}, []Arg{SingleArg(in)}, SingleArg(l))
	g.MustAddNode("right", &fakeOp{n: 1}, []Arg{SingleArg(in)}, SingleArg(r))
	join := g.MustAddNode("join", &fakeOp{n: 2}, []Arg{SingleArg(l), SingleArg(r)}, SingleArg(out))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if order[len(order)-1] != join {
		t.Fatal("join must be last")
	}
}

func TestClone(t *testing.T) {
	g, bufs := chain(t, 3)
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != len(g.Nodes) || len(c.Buffers()) != len(g.Buffers()) {
		t.Fatal("clone size mismatch")
	}
	// Mutating the clone must not affect the original.
	c.RemoveNode(c.Nodes[0])
	if len(g.Nodes) != 3 {
		t.Fatal("clone mutation leaked into original")
	}
	// Buffer identity is fresh but IDs/roles are preserved.
	cb := c.Buffer(bufs[0].ID)
	if cb == bufs[0] {
		t.Fatal("clone shares buffer pointers")
	}
	if !cb.IsInput || cb.Shape() != bufs[0].Shape() {
		t.Fatal("clone buffer state wrong")
	}
	if cb.Root != cb {
		t.Fatal("clone root remapping wrong")
	}
	// New buffers in the clone do not collide with original IDs.
	nb := c.NewBuffer("fresh", Shape{Rows: 1, Cols: 1})
	if g.Buffer(nb.ID) != nil {
		t.Fatal("ID collision after clone")
	}
}

func TestCloneChildRootRemap(t *testing.T) {
	g := New()
	root := g.NewBuffer("r", Shape{Rows: 4, Cols: 4})
	child := g.NewChild("c", root, Region{Row: 0, Col: 0, Rows: 2, Cols: 4})
	c := g.Clone()
	cc := c.Buffer(child.ID)
	if cc.Root != c.Buffer(root.ID) {
		t.Fatal("child root must map to cloned root")
	}
	if cc.Root == root {
		t.Fatal("child root points at original graph")
	}
}
