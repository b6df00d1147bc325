package graph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
)

// The naive* helpers are the map-based derivations the dense ones in
// topo.go, graph.go, validate.go and fingerprint.go replaced, kept verbatim
// (modulo receivers) as oracles: every rewritten relation must agree with
// them exactly.

func naiveBuffers(n *graph.Node) []*graph.Buffer {
	seen := make(map[int]bool)
	var out []*graph.Buffer
	add := func(bs []*graph.Buffer) {
		for _, b := range bs {
			if !seen[b.ID] {
				seen[b.ID] = true
				out = append(out, b)
			}
		}
	}
	for _, a := range n.In {
		add(a.Bufs)
	}
	add(n.Out.Bufs)
	return out
}

func naiveInputBuffers(n *graph.Node) []*graph.Buffer {
	seen := make(map[int]bool)
	var out []*graph.Buffer
	for _, a := range n.In {
		for _, b := range a.Bufs {
			if !seen[b.ID] {
				seen[b.ID] = true
				out = append(out, b)
			}
		}
	}
	return out
}

func naiveLiveBuffers(g *graph.Graph) []*graph.Buffer {
	seen := make(map[int]bool)
	var out []*graph.Buffer
	for _, n := range g.Nodes {
		for _, b := range naiveBuffers(n) {
			if !seen[b.ID] {
				seen[b.ID] = true
				out = append(out, b)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func naiveLiveWhere(g *graph.Graph, keep func(*graph.Buffer) bool) []*graph.Buffer {
	var out []*graph.Buffer
	for _, b := range naiveLiveBuffers(g) {
		if keep(b) {
			out = append(out, b)
		}
	}
	return out
}

func naiveProducer(g *graph.Graph) map[int]*graph.Node {
	m := make(map[int]*graph.Node)
	for _, n := range g.Nodes {
		for _, b := range n.Out.Bufs {
			m[b.ID] = n
		}
	}
	return m
}

func naiveDeps(g *graph.Graph) map[int][]*graph.Node {
	prod := naiveProducer(g)
	deps := make(map[int][]*graph.Node, len(g.Nodes))
	for _, n := range g.Nodes {
		seen := make(map[int]bool)
		var ds []*graph.Node
		for _, b := range naiveInputBuffers(n) {
			if p, ok := prod[b.ID]; ok && p != n && !seen[p.ID] {
				seen[p.ID] = true
				ds = append(ds, p)
			}
		}
		deps[n.ID] = ds
	}
	return deps
}

// naiveDependents ranges over a map, so each list comes out in random
// order: only its consumer sets are an oracle.
func naiveDependents(g *graph.Graph) map[int][]*graph.Node {
	deps := naiveDeps(g)
	out := make(map[int][]*graph.Node, len(g.Nodes))
	byID := make(map[int]*graph.Node, len(g.Nodes))
	for _, n := range g.Nodes {
		byID[n.ID] = n
		out[n.ID] = nil
	}
	for id, ds := range deps {
		for _, d := range ds {
			out[d.ID] = append(out[d.ID], byID[id])
		}
	}
	return out
}

func naiveTopoSort(g *graph.Graph) ([]*graph.Node, error) {
	deps := naiveDeps(g)
	indeg := make(map[int]int, len(g.Nodes))
	for _, n := range g.Nodes {
		indeg[n.ID] = len(deps[n.ID])
	}
	dependents := naiveDependents(g)

	var ready []*graph.Node
	for _, n := range g.Nodes {
		if indeg[n.ID] == 0 {
			ready = append(ready, n)
		}
	}
	var order []*graph.Node
	for len(ready) > 0 {
		// Stable: pick the lowest-ID ready node.
		best := 0
		for i, n := range ready {
			if n.ID < ready[best].ID {
				best = i
			}
		}
		n := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, n)
		for _, m := range dependents[n.ID] {
			indeg[m.ID]--
			if indeg[m.ID] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)",
			len(order), len(g.Nodes))
	}
	return order, nil
}

func naiveIsTopoOrder(g *graph.Graph, order []*graph.Node) bool {
	if len(order) != len(g.Nodes) {
		return false
	}
	pos := make(map[int]int, len(order))
	for i, n := range order {
		if _, dup := pos[n.ID]; dup {
			return false
		}
		pos[n.ID] = i
	}
	if len(pos) != len(g.Nodes) {
		return false
	}
	for id, ds := range naiveDeps(g) {
		p, ok := pos[id]
		if !ok {
			return false
		}
		for _, d := range ds {
			if pos[d.ID] >= p {
				return false
			}
		}
	}
	return true
}

func naiveCovered(a graph.Arg) bool {
	type iv struct{ lo, hi int }
	rows := make([]iv, 0, len(a.Bufs))
	for _, b := range a.Bufs {
		if b.Region.Col > a.Region.Col || b.Region.Col+b.Region.Cols < a.Region.Col+a.Region.Cols {
			return false // does not span the arg's column range
		}
		rows = append(rows, iv{b.Region.Row, b.Region.Row + b.Region.Rows})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].lo < rows[j].lo })
	cur := a.Region.Row
	for _, v := range rows {
		if v.lo > cur {
			return false
		}
		if v.hi > cur {
			cur = v.hi
		}
	}
	return cur >= a.Region.Row+a.Region.Rows
}

func naiveValidate(g *graph.Graph) error {
	prod := make(map[int]*graph.Node)
	for _, n := range g.Nodes {
		if len(n.Out.Bufs) == 0 {
			return fmt.Errorf("graph: node %s has no output buffers", n)
		}
		for _, b := range n.Out.Bufs {
			if p, ok := prod[b.ID]; ok && p != n {
				return fmt.Errorf("graph: buffer %s produced by both %s and %s", b, p, n)
			}
			prod[b.ID] = n
		}
	}
	for _, n := range g.Nodes {
		args := append(append([]graph.Arg(nil), n.In...), n.Out)
		for ai, a := range args {
			if len(a.Bufs) == 0 {
				return fmt.Errorf("graph: node %s arg %d is empty", n, ai)
			}
			root := a.Bufs[0].Root
			for _, b := range a.Bufs {
				if b.Root != root {
					return fmt.Errorf("graph: node %s arg %d mixes roots %s and %s",
						n, ai, root.Name, b.Root.Name)
				}
				if _, ok := a.Region.Intersect(b.Region); !ok {
					return fmt.Errorf("graph: node %s arg %d buffer %s disjoint from region %v",
						n, ai, b, a.Region)
				}
			}
			if !naiveCovered(a) {
				return fmt.Errorf("graph: node %s arg %d region %v not covered by its buffers",
					n, ai, a.Region)
			}
		}
		for _, b := range naiveInputBuffers(n) {
			if _, ok := prod[b.ID]; !ok && !b.IsInput && !b.Root.IsInput {
				return fmt.Errorf("graph: node %s reads %s which has no producer and is not an input",
					n, b)
			}
		}
	}
	for _, b := range naiveLiveWhere(g, func(b *graph.Buffer) bool { return b.IsOutput }) {
		if _, ok := prod[b.ID]; !ok {
			return fmt.Errorf("graph: template output %s is never produced", b)
		}
	}
	if _, err := naiveTopoSort(g); err != nil {
		return err
	}
	return nil
}

func naiveFingerprint(g *graph.Graph) string {
	h := sha256.New()
	order, err := naiveTopoSort(g)
	if err != nil {
		order = g.Nodes
	}

	canon := make(map[int]int) // buffer ID -> canonical number
	var sb strings.Builder
	var ref func(b *graph.Buffer)
	ref = func(b *graph.Buffer) {
		if id, ok := canon[b.ID]; ok {
			fmt.Fprintf(&sb, "b%d", id)
			return
		}
		id := len(canon)
		canon[b.ID] = id
		fmt.Fprintf(&sb, "b%d{", id)
		if !b.IsRoot() {
			sb.WriteString("of=")
			ref(b.Root)
			sb.WriteByte(';')
		}
		fmt.Fprintf(&sb, "reg=%d,%d,%d,%d", b.Region.Row, b.Region.Col, b.Region.Rows, b.Region.Cols)
		if b.EstDigest != "" {
			fmt.Fprintf(&sb, ";est=%s", b.EstDigest)
		}
		if b.IsInput {
			sb.WriteString(";in")
		}
		if b.IsOutput {
			sb.WriteString(";out")
		}
		sb.WriteByte('}')
	}
	arg := func(a graph.Arg) {
		fmt.Fprintf(&sb, "(%d,%d,%d,%d:", a.Region.Row, a.Region.Col, a.Region.Rows, a.Region.Cols)
		for i, b := range a.Bufs {
			if i > 0 {
				sb.WriteByte(',')
			}
			ref(b)
		}
		sb.WriteByte(')')
	}

	for _, n := range order {
		sb.Reset()
		sb.WriteString("n:")
		sb.WriteString(n.Op.Kind())
		if p, ok := n.Op.(graph.OpParams); ok {
			sb.WriteByte('[')
			sb.Write(p.AppendParams(nil))
			sb.WriteByte(']')
		}
		sb.WriteString("|in=")
		for i, a := range n.In {
			if i > 0 {
				sb.WriteByte(';')
			}
			arg(a)
		}
		sb.WriteString("|out=")
		arg(n.Out)
		sb.WriteByte('\n')
		h.Write([]byte(sb.String()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkOracles compares every rewritten relation of g with its oracle.
func checkOracles(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Errorf("%s: %s differs from the oracle:\n got %v\nwant %v", name, what, got, want)
	}
	order, err := g.TopoSort()
	wantOrder, wantErr := naiveTopoSort(g)
	if !reflect.DeepEqual(order, wantOrder) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		fail("TopoSort", fmt.Sprint(order, err), fmt.Sprint(wantOrder, wantErr))
	}
	if got, want := g.Deps(), naiveDeps(g); !reflect.DeepEqual(got, want) {
		fail("Deps", got, want)
	}
	if got, want := g.LiveBuffers(), naiveLiveBuffers(g); !reflect.DeepEqual(got, want) {
		fail("LiveBuffers", got, want)
	}
	if got, want := g.InputBuffers(), naiveLiveWhere(g, func(b *graph.Buffer) bool { return b.IsInput }); !reflect.DeepEqual(got, want) {
		fail("InputBuffers", got, want)
	}
	if got, want := g.OutputBuffers(), naiveLiveWhere(g, func(b *graph.Buffer) bool { return b.IsOutput }); !reflect.DeepEqual(got, want) {
		fail("OutputBuffers", got, want)
	}
	for _, n := range g.Nodes {
		if got, want := n.Buffers(), naiveBuffers(n); !reflect.DeepEqual(got, want) {
			fail(n.String()+".Buffers", got, want)
		}
		if got, want := n.InputBuffers(), naiveInputBuffers(n); !reflect.DeepEqual(got, want) {
			fail(n.String()+".InputBuffers", got, want)
		}
		for _, a := range append(slices.Clone(n.In), n.Out) {
			if a.Covered() != naiveCovered(a) {
				fail(fmt.Sprintf("%s Covered(%v)", n, a.Region), a.Covered(), naiveCovered(a))
			}
		}
	}
	if got, want := fmt.Sprint(g.Validate()), fmt.Sprint(naiveValidate(g)); got != want {
		fail("Validate", got, want)
	}
	if got, want := g.Fingerprint(), naiveFingerprint(g); got != want {
		fail("Fingerprint", got, want)
	}
	if wantOrder != nil {
		rev := slices.Clone(wantOrder)
		slices.Reverse(rev)
		for _, o := range [][]*graph.Node{wantOrder, rev, g.Nodes, wantOrder[1:]} {
			if got, want := g.IsTopoOrder(o), naiveIsTopoOrder(g, o); got != want {
				fail("IsTopoOrder", got, want)
			}
		}
	}
}

// permutedView returns a Subgraph view of g's nodes in a seeded random
// order.
func permutedView(g *graph.Graph, seed int64) *graph.Graph {
	nodes := slices.Clone(g.Nodes)
	rand.New(rand.NewSource(seed)).Shuffle(len(nodes), func(i, j int) {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	})
	return g.Subgraph(nodes)
}

func TestRelationsMatchOracleOnCorpus(t *testing.T) {
	multi, strips := false, false
	eachCorpusGraph(t, func(t *testing.T, name string, g *graph.Graph) {
		checkOracles(t, name, g)
		checkOracles(t, name+"/permuted view", permutedView(g, 1))
		for _, n := range g.Nodes {
			for _, a := range n.In {
				multi = multi || len(a.Bufs) > 1
			}
			for i, b := range n.Out.Bufs {
				for _, o := range n.Out.Bufs[i+1:] {
					_, overlap := b.Region.Intersect(o.Region)
					strips = strips || overlap
				}
			}
		}
	})
	if !multi || !strips {
		t.Fatalf("corpus lacks multi-buffer args (%v) or halo strips (%v)", multi, strips)
	}
}

// randomDAG builds a seeded random layered graph: nodes read one to three
// earlier buffers (fan-out and diamonds), some write their output as two
// row-half children that consumers read as a two-buffer arg, some read
// their own output (in place), some outputs are never read (dead nodes),
// and nodes are added in shuffled order so node IDs do not follow the
// dependency order.
func randomDAG(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	s := graph.Shape{Rows: 8, Cols: 4}
	full := graph.FullRegion(s)
	var avail []graph.Arg
	for i := 0; i < 1+rng.Intn(3); i++ {
		b := g.NewBuffer("in", s)
		b.IsInput = true
		avail = append(avail, graph.SingleArg(b))
	}
	type pending struct {
		in  []graph.Arg
		out graph.Arg
	}
	var nodes []pending
	for layer := 0; layer < 2+rng.Intn(5); layer++ {
		var made []graph.Arg
		for w := 0; w < 1+rng.Intn(4); w++ {
			var in []graph.Arg
			for k := 0; k < 1+rng.Intn(3); k++ {
				in = append(in, avail[rng.Intn(len(avail))])
			}
			root := g.NewBuffer("t", s)
			out := graph.SingleArg(root)
			if rng.Intn(3) == 0 {
				top := g.NewChild("top", root, graph.Region{Rows: 4, Cols: 4})
				bot := g.NewChild("bot", root, graph.Region{Row: 4, Rows: 4, Cols: 4})
				out = graph.Arg{Region: full, Bufs: []*graph.Buffer{bot, top}}
			}
			out.Bufs[0].IsOutput = rng.Intn(4) == 0
			if rng.Intn(8) == 0 {
				in = append(in, out)
			}
			nodes = append(nodes, pending{in, out})
			made = append(made, out)
		}
		avail = append(avail, made...)
	}
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	for _, p := range nodes {
		g.MustAddNode("n", ops.NewAddN(len(p.in)), p.in, p.out)
	}
	return g
}

func TestRelationsMatchOracleOnRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		g := randomDAG(seed)
		name := fmt.Sprintf("seed %d", seed)
		checkOracles(t, name, g)
		view := permutedView(g, seed)
		checkOracles(t, name+"/permuted view", view)
		checkOracles(t, name+"/half view", g.Subgraph(view.Nodes[:len(view.Nodes)/2]))
	}
}

// TestRelationsMatchOracleOnCyclicGraphs closes a cycle in random graphs
// by making a node also read one of its dependents' outputs: TopoSort,
// Validate and IsTopoOrder must fail with the oracle's text, and the
// fingerprint falls back to declaration order identically.
func TestRelationsMatchOracleOnCyclicGraphs(t *testing.T) {
	cyclic := 0
	for seed := int64(0); seed < 100; seed++ {
		g := randomDAG(seed)
		dependents := naiveDependents(g)
		for _, u := range g.Nodes {
			if ds := dependents[u.ID]; len(ds) > 0 {
				v := slices.MinFunc(ds, func(a, b *graph.Node) int { return a.ID - b.ID })
				u.In = append(u.In, graph.SingleArg(v.Out.Bufs[0]))
				cyclic++
				break
			}
		}
		if _, err := naiveTopoSort(g); err == nil {
			continue
		}
		checkOracles(t, fmt.Sprintf("cyclic seed %d", seed), g)
	}
	if cyclic < 50 {
		t.Fatalf("only %d of 100 random graphs could be made cyclic", cyclic)
	}
}

// TestCoveredMatchesOracleSweep checks Covered against the interval sweep on
// every small region and one- or two-buffer cover, degenerate and
// negative extents included.
func TestCoveredMatchesOracleSweep(t *testing.T) {
	vals := []int{-2, -1, 0, 1, 2, 3}
	buf := func(row, rows, col, cols int) *graph.Buffer {
		return &graph.Buffer{Region: graph.Region{Row: row, Rows: rows, Col: col, Cols: cols}}
	}
	for _, row := range vals {
		for _, rows := range vals {
			for _, col := range vals[1:4] {
				for _, cols := range vals[1:5] {
					reg := graph.Region{Row: row, Rows: rows, Col: col, Cols: cols}
					for _, br := range vals {
						for _, brs := range vals {
							for _, bc := range vals[1:4] {
								b := buf(br, brs, bc, cols+1)
								for _, a := range []graph.Arg{
									{Region: reg, Bufs: []*graph.Buffer{b}},
									{Region: reg, Bufs: []*graph.Buffer{b, buf(row+1, 2, col, cols)}},
									{Region: reg},
								} {
									if a.Covered() != naiveCovered(a) {
										t.Fatalf("Covered(%v over %v) = %v, sweep says %v",
											reg, a.Bufs, a.Covered(), naiveCovered(a))
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// FuzzCovered checks Covered against the interval sweep over one region
// and one to four row-band buffers; run with -fuzz=FuzzCovered.
func FuzzCovered(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 4, 0, 0, 8, 4})
	f.Add([]byte{1, 0, 0, 8, 4, 0, 0, 4, 4, 4, 0, 4, 4})
	f.Add([]byte{3, 2, 1, 5, 2, 0, 0, 3, 4, 3, 0, 1, 4, 5, 0, 3, 4, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(int8(data[i]))
			}
			return 0
		}
		region := func(i int) graph.Region {
			return graph.Region{Row: at(i), Col: at(i + 1), Rows: at(i + 2), Cols: at(i + 3)}
		}
		a := graph.Arg{Region: region(1)}
		for k := 0; k < 1+int(uint8(at(0)))%4; k++ {
			a.Bufs = append(a.Bufs, &graph.Buffer{Region: region(5 + 4*k)})
		}
		if a.Covered() != naiveCovered(a) {
			t.Fatalf("Covered(%v over %d buffers) = %v, sweep says %v",
				a.Region, len(a.Bufs), a.Covered(), naiveCovered(a))
		}
	})
}
