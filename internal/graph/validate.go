package graph

import "fmt"

// Validate checks structural invariants of the graph:
//   - every buffer has at most one producing node;
//   - every consumed buffer is either a template input (or region of one)
//     or is produced by some node;
//   - every Arg's buffers share a root and cover the Arg's region;
//   - the node dependency relation is acyclic;
//   - template outputs are produced.
func (g *Graph) Validate() error {
	prod := make([]int32, g.NumBufferIDs()) // buffer ID -> producer position, -1 if none
	for i := range prod {
		prod[i] = -1
	}
	for i, n := range g.Nodes {
		if len(n.Out.Bufs) == 0 {
			return fmt.Errorf("graph: node %s has no output buffers", n)
		}
		for _, b := range n.Out.Bufs {
			if p := prod[b.ID]; p >= 0 && int(p) != i {
				return fmt.Errorf("graph: buffer %s produced by both %s and %s", b, g.Nodes[p], n)
			}
			prod[b.ID] = int32(i)
		}
	}
	for _, n := range g.Nodes {
		for ai := 0; ai <= len(n.In); ai++ {
			a := n.Out // arg len(n.In) is the output
			if ai < len(n.In) {
				a = n.In[ai]
			}
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
			if !a.Covered() {
				return fmt.Errorf("graph: node %s arg %d region %v not covered by its buffers",
					n, ai, a.Region)
			}
		}
		for _, a := range n.In {
			for _, b := range a.Bufs {
				if prod[b.ID] < 0 && !b.IsInput && !b.Root.IsInput {
					return fmt.Errorf("graph: node %s reads %s which has no producer and is not an input",
						n, b)
				}
			}
		}
	}
	for _, b := range g.OutputBuffers() {
		if prod[b.ID] < 0 {
			return fmt.Errorf("graph: template output %s is never produced", b)
		}
	}
	_, err := g.topoSort(g.deps(prod))
	return err
}
