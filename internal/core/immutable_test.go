package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/templates"
)

// graphSnapshot records everything a compile could change in a graph it
// was handed: the fingerprint, the node list, each node's operator value
// and In/Out slices, and every registered buffer's fields.
type graphSnapshot struct {
	fingerprint string
	nodes       []*graph.Node
	ops         []graph.Operator
	args        [][]graph.Arg // per node: In..., then Out; Bufs copied
	buffers     []bufferFields
}

type bufferFields struct {
	id                int
	name              string
	root              *graph.Buffer
	region            graph.Region
	isInput, isOutput bool
	hasEst            bool
	estDigest         string
}

func snapshot(g *graph.Graph) graphSnapshot {
	s := graphSnapshot{fingerprint: g.Fingerprint(), nodes: slices.Clone(g.Nodes)}
	for _, n := range g.Nodes {
		s.ops = append(s.ops, n.Op)
		var args []graph.Arg
		for _, a := range append(slices.Clone(n.In), n.Out) {
			args = append(args, graph.Arg{Region: a.Region, Bufs: slices.Clone(a.Bufs)})
		}
		s.args = append(s.args, args)
	}
	for _, b := range g.Buffers() {
		s.buffers = append(s.buffers, bufferFields{b.ID, b.Name, b.Root, b.Region,
			b.IsInput, b.IsOutput, b.Est != nil, b.EstDigest})
	}
	return s
}

// diff names the first difference between two snapshots, or "".
func (s graphSnapshot) diff(o graphSnapshot) string {
	if s.fingerprint != o.fingerprint {
		return "fingerprint changed"
	}
	if !slices.Equal(s.nodes, o.nodes) {
		return fmt.Sprintf("node list changed (%d nodes → %d)", len(s.nodes), len(o.nodes))
	}
	for i, n := range s.nodes {
		if s.ops[i] != o.ops[i] {
			return fmt.Sprintf("node %s: operator replaced", n.Name)
		}
		if len(s.args[i]) != len(o.args[i]) {
			return fmt.Sprintf("node %s: %d args → %d", n.Name, len(s.args[i]), len(o.args[i]))
		}
		for ai, a := range s.args[i] {
			b := o.args[i][ai]
			if a.Region != b.Region || !slices.Equal(a.Bufs, b.Bufs) {
				return fmt.Sprintf("node %s: arg %d rewired", n.Name, ai)
			}
		}
	}
	if !slices.Equal(s.buffers, o.buffers) {
		return fmt.Sprintf("buffer registry changed (%d buffers → %d)", len(s.buffers), len(o.buffers))
	}
	return ""
}

// TestCompileNeverMutatesItsInput runs every compile entry point on
// templates that split and ones that do not, and requires the caller's
// graph to come back exactly as it went in. A compile that splits nothing
// must not have copied the graph either: its compiled graph shares the
// caller's buffers.
func TestCompileNeverMutatesItsInput(t *testing.T) {
	ctx := context.Background()
	edge10k := func(t *testing.T) *graph.Graph {
		g, _, err := templates.EdgeDetect(templates.EdgeConfig{
			ImageH: 10000, ImageW: 10000, KernelSize: 16, Orientations: 4})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cnn := func(cfg templates.CNNConfig) func(*testing.T) *graph.Graph {
		return func(t *testing.T) *graph.Graph {
			g, _, err := templates.CNN(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	c870 := Config{Device: gpu.TeslaC870(), Schedule: "worksteal"}
	autotune := c870
	autotune.AutoTuneSplit = true
	type result struct {
		graph  *graph.Graph
		splits int
	}
	engine := func(cfg Config) func(context.Context, *graph.Graph) (result, error) {
		return func(ctx context.Context, g *graph.Graph) (result, error) {
			c, err := NewEngine(cfg).Compile(ctx, g)
			if err != nil {
				return result{}, err
			}
			return result{c.Graph, c.Split.SplitNodes}, nil
		}
	}
	service := func(ctx context.Context, g *graph.Graph) (result, error) {
		c, _, err := NewService(withConfig(c870)).Compile(ctx, g)
		if err != nil {
			return result{}, err
		}
		return result{c.Graph, c.Split.SplitNodes}, nil
	}
	partitioned := func(ctx context.Context, g *graph.Graph) (result, error) {
		pc, _, err := NewService(WithSchedule("worksteal")).CompilePartitioned(ctx, g, miniPool())
		if err != nil {
			return result{}, err
		}
		return result{pc.Graph, pc.Split.SplitNodes}, nil
	}
	for _, tc := range []struct {
		name    string
		build   func(*testing.T) *graph.Graph
		compile func(context.Context, *graph.Graph) (result, error)
		splits  bool
	}{
		{"Engine.Compile/edge 10000²", edge10k, engine(c870), true},
		{"Engine.Compile/small CNN 640x480", cnn(templates.SmallCNN(640, 480)), engine(c870), false},
		{"Service.Compile/edge 10000²", edge10k, service, true},
		{"Service.Compile/small CNN 640x480", cnn(templates.SmallCNN(640, 480)), service, false},
		{"Service.CompilePartitioned/small CNN 512x384", cnn(templates.SmallCNN(512, 384)), partitioned, true},
		{"AutoTuneSplit/edge 10000²", edge10k, engine(autotune), true},
		{"AutoTuneSplit/small CNN 640x480", cnn(templates.SmallCNN(640, 480)), engine(autotune), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			before := snapshot(g)
			res, err := tc.compile(ctx, g)
			if err != nil {
				t.Fatal(err)
			}
			if d := before.diff(snapshot(g)); d != "" {
				t.Fatalf("the caller's graph was mutated: %s", d)
			}
			if split := res.splits > 0; split != tc.splits {
				t.Fatalf("split %d nodes; the table expects splitting=%v", res.splits, tc.splits)
			}
			shared := res.graph.Buffer(0) == g.Buffer(0)
			if shared == tc.splits {
				t.Fatalf("compiled graph shares the caller's buffers: %v; it should exactly when nothing split (split %d nodes)",
					shared, res.splits)
			}
		})
	}
}
