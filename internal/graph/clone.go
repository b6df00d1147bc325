package graph

// Clone returns a deep copy of the graph: fresh Buffer and Node values
// with identical IDs, names, regions, and roles. Operators are shared
// (they are stateless). The compiler's split pass clones the graph it is
// about to rewrite, so a compile never edits the graph it was given.
//
// The copy is made in a handful of allocations: one slab each of
// buffers, nodes, args and buffer references, with every node's In and
// every arg's Bufs a capped sub-slice of its slab, so an append to one
// copies instead of writing into its neighbour.
func (g *Graph) Clone() *Graph {
	out := &Graph{nextNodeID: g.nextNodeID}

	bufs := make([]Buffer, len(g.buffers))
	out.buffers = make([]*Buffer, len(g.buffers))
	for id, b := range g.buffers {
		nb := &bufs[id]
		*nb = Buffer{
			ID:        b.ID,
			Name:      b.Name,
			Root:      &bufs[b.Root.ID],
			Region:    b.Region,
			IsInput:   b.IsInput,
			IsOutput:  b.IsOutput,
			Est:       b.Est,
			EstDigest: b.EstDigest,
		}
		nb.self[0] = nb
		out.buffers[id] = nb
	}
	out.bufs = bufs

	args, refs := 0, 0
	for _, n := range g.Nodes {
		args += len(n.In)
		refs += len(n.Out.Bufs)
		for _, a := range n.In {
			refs += len(a.Bufs)
		}
	}
	argSlab := make([]Arg, 0, args)
	refSlab := make([]*Buffer, 0, refs)
	cloneArg := func(a Arg) Arg {
		start := len(refSlab)
		for _, b := range a.Bufs {
			refSlab = append(refSlab, &bufs[b.ID])
		}
		return Arg{Region: a.Region, Bufs: refSlab[start:len(refSlab):len(refSlab)]}
	}
	nodes := make([]Node, len(g.Nodes))
	out.Nodes = make([]*Node, len(g.Nodes))
	for i, n := range g.Nodes {
		start := len(argSlab)
		for _, a := range n.In {
			argSlab = append(argSlab, cloneArg(a))
		}
		nodes[i] = Node{ID: n.ID, Name: n.Name, Op: n.Op,
			In: argSlab[start:len(argSlab):len(argSlab)], Out: cloneArg(n.Out)}
		out.Nodes[i] = &nodes[i]
	}
	out.nodes = nodes
	return out
}
