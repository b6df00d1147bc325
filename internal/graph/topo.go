package graph

import (
	"fmt"
	"slices"
)

// The relations below are derived per call in dense form — buffers indexed
// by ID (dense below NumBufferIDs), nodes by position in g.Nodes, so a
// Subgraph view in any node order works alike — and never memoized on
// *Graph: the split pass rewrites args in place and Subgraph views share
// the buffer registry, so a cached relation could go stale.

// producers returns, by buffer ID, the g.Nodes position of the node
// writing each buffer (the last one, as Producer reports), or -1.
func (g *Graph) producers() []int32 {
	prod := make([]int32, g.NumBufferIDs())
	for i := range prod {
		prod[i] = -1
	}
	for i, n := range g.Nodes {
		for _, b := range n.Out.Bufs {
			prod[b.ID] = int32(i)
		}
	}
	return prod
}

// csr is a relation over node positions: position i relates to
// adj[start[i]:start[i+1]].
type csr struct{ start, adj []int32 }

func (c csr) of(i int) []int32 { return c.adj[c.start[i]:c.start[i+1]] }

// deps relates each node to the distinct other nodes producing a buffer it
// reads, in first-seen order (In args in order, each arg's Bufs in order).
func (g *Graph) deps(prod []int32) csr {
	c := csr{start: make([]int32, len(g.Nodes)+1)}
	for i, n := range g.Nodes {
		first := len(c.adj)
		for _, a := range n.In {
			for _, b := range a.Bufs {
				if p := prod[b.ID]; p >= 0 && int(p) != i && !slices.Contains(c.adj[first:], p) {
					c.adj = append(c.adj, p)
				}
			}
		}
		c.start[i+1] = int32(len(c.adj))
	}
	return c
}

// invert returns the inverse relation, each list ascending.
func (c csr) invert() csr {
	n := len(c.start) - 1
	inv := csr{start: make([]int32, n+1), adj: make([]int32, len(c.adj))}
	for _, d := range c.adj {
		inv.start[d+1]++
	}
	for i := 1; i <= n; i++ {
		inv.start[i] += inv.start[i-1]
	}
	for i := 0; i < n; i++ { // start[d] is list d's cursor, then its end
		for _, d := range c.of(i) {
			inv.adj[inv.start[d]] = int32(i)
			inv.start[d]++
		}
	}
	copy(inv.start[1:], inv.start[:n])
	inv.start[0] = 0
	return inv
}

// fill stores each node's related nodes in m under its ID (nil if none),
// as capped sub-slices of one array.
func (c csr) fill(m map[int][]*Node, nodes []*Node) map[int][]*Node {
	flat := make([]*Node, len(c.adj))
	for k, p := range c.adj {
		flat[k] = nodes[p]
	}
	for i, n := range nodes {
		if s, e := c.start[i], c.start[i+1]; s < e {
			m[n.ID] = flat[s:e:e]
		} else {
			m[n.ID] = nil
		}
	}
	return m
}

// Deps returns, for each node, the set of nodes it depends on (producers
// of buffers it reads), in first-seen order over its In args. The result
// maps node ID to dependency nodes.
func (g *Graph) Deps() map[int][]*Node {
	return g.deps(g.producers()).fill(make(map[int][]*Node, len(g.Nodes)), g.Nodes)
}

// TopoSort returns the nodes in a dependency-respecting order (Kahn's
// algorithm, always taking the lowest-ID ready node), or an error if the
// graph has a cycle.
func (g *Graph) TopoSort() ([]*Node, error) { return g.topoSort(g.deps(g.producers())) }

func (g *Graph) topoSort(deps csr) ([]*Node, error) {
	if len(g.Nodes) == 0 {
		return nil, nil
	}
	dependents := deps.invert()
	indeg := make([]int32, len(g.Nodes))
	ready := make(idHeap, 0, len(g.Nodes))
	for i, n := range g.Nodes {
		if indeg[i] = deps.start[i+1] - deps.start[i]; indeg[i] == 0 {
			ready.push(n.ID, i)
		}
	}
	order := make([]*Node, 0, len(g.Nodes))
	for len(ready) > 0 {
		i := ready.pop()
		order = append(order, g.Nodes[i])
		for _, m := range dependents.of(i) {
			if indeg[m]--; indeg[m] == 0 {
				ready.push(g.Nodes[m].ID, int(m))
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)",
			len(order), len(g.Nodes))
	}
	return order, nil
}

// idHeap is a binary min-heap of node positions keyed by node ID, packed
// as id<<32 | position: comparing needs no pointer chase, pushing boxes
// nothing.
type idHeap []int64

func (h *idHeap) push(id, pos int) {
	s := append(*h, int64(id)<<32|int64(pos))
	for i := len(s) - 1; i > 0 && s[(i-1)/2] > s[i]; i = (i - 1) / 2 {
		s[(i-1)/2], s[i] = s[i], s[(i-1)/2]
	}
	*h = s
}

func (h *idHeap) pop() int {
	s := *h
	top := s[0]
	s[0] = s[len(s)-1]
	s = s[:len(s)-1]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < len(s) && s[c+1] < s[c] {
			c++
		}
		if c >= len(s) || s[i] <= s[c] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return int(top & 0xffffffff)
}

// IsTopoOrder reports whether the given node sequence contains every node
// of the graph exactly once and respects all dependencies.
func (g *Graph) IsTopoOrder(order []*Node) bool {
	if len(order) != len(g.Nodes) {
		return false
	}
	bound := 0
	for _, n := range g.Nodes {
		bound = max(bound, n.ID+1)
	}
	pos := make([]int32, bound) // node ID -> index in order + 1
	for i, n := range order {
		if n.ID >= bound || pos[n.ID] != 0 {
			return false
		}
		pos[n.ID] = int32(i) + 1
	}
	deps := g.deps(g.producers())
	for i, n := range g.Nodes {
		if pos[n.ID] == 0 {
			return false
		}
		for _, d := range deps.of(i) {
			if pos[g.Nodes[d].ID] >= pos[n.ID] {
				return false
			}
		}
	}
	return true
}
