package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// OpParams is an optional Operator interface for operators whose kernel
// depends on parameters beyond their Kind: kernel dimensions, pooling
// factors, remap constants. AppendParams appends a canonical,
// deterministic encoding of those parameters to dst and returns the
// extended slice; Fingerprint writes it straight into the graph hash's
// input so that e.g. a 3×3 and a 16×16 convolution never collide.
// Operators without parameters need not implement it.
type OpParams interface {
	AppendParams(dst []byte) []byte
}

// Fingerprint returns a canonical SHA-256 fingerprint of the graph: a
// deterministic hash over a topological encoding of its nodes, buffers,
// shapes, regions, input/output roles, operator kinds, and operator
// parameters. The encoding renumbers buffers and nodes in first-use order
// along the topological walk, so the fingerprint is invariant under
// cloning and under cosmetic differences (node and buffer names, buffer
// ID numbering) while distinguishing any structural difference — shapes,
// regions, wiring, operator kinds, or operator parameters. Node IDs are
// not fully cosmetic: the walk breaks ties between ready nodes by ID, so
// only a renumbering that preserves the relative order of node IDs is
// guaranteed to leave the fingerprint unchanged.
//
// Two graphs with equal fingerprints compile to identical plans under
// identical device specs and planner configurations, which is what makes
// the fingerprint a sound plan-cache key component (internal/compiler
// combines it with the device and config encodings).
func (g *Graph) Fingerprint() string {
	h := sha256.New()
	order, err := g.TopoSort()
	if err != nil {
		// A cyclic graph cannot compile; hash it in declaration order so
		// the fingerprint is still deterministic.
		order = g.Nodes
	}
	e := fpEncoder{canon: make([]int32, g.NumBufferIDs())}
	for _, n := range order {
		e.buf = append(append(e.buf[:0], "n:"...), n.Op.Kind()...)
		if p, ok := n.Op.(OpParams); ok {
			e.buf = append(p.AppendParams(append(e.buf, '[')), ']')
		}
		e.buf = append(e.buf, "|in="...)
		for i, a := range n.In {
			if i > 0 {
				e.buf = append(e.buf, ';')
			}
			e.arg(a)
		}
		e.buf = append(e.buf, "|out="...)
		e.arg(n.Out)
		e.buf = append(e.buf, '\n')
		h.Write(e.buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fpEncoder writes one node's line of the fingerprint stream into buf.
type fpEncoder struct {
	buf   []byte
	canon []int32 // buffer ID -> canonical number + 1; 0 = not yet seen
	seen  int32
}

func (e *fpEncoder) ints(sep byte, vs ...int) {
	for i, v := range vs {
		if i > 0 {
			e.buf = append(e.buf, sep)
		}
		e.buf = strconv.AppendInt(e.buf, int64(v), 10)
	}
}

// ref writes a canonical buffer reference, emitting the buffer's full
// description (root reference, region, roles) on first encounter.
func (e *fpEncoder) ref(b *Buffer) {
	e.buf = append(e.buf, 'b')
	if c := e.canon[b.ID]; c != 0 {
		e.ints(0, int(c-1))
		return
	}
	e.seen++
	e.canon[b.ID] = e.seen
	e.ints(0, int(e.seen-1))
	e.buf = append(e.buf, '{')
	if !b.IsRoot() {
		e.buf = append(e.buf, "of="...)
		e.ref(b.Root)
		e.buf = append(e.buf, ';')
	}
	e.buf = append(e.buf, "reg="...)
	e.ints(',', b.Region.Row, b.Region.Col, b.Region.Rows, b.Region.Cols)
	if b.EstDigest != "" {
		// Data-dependent footprint: the estimator's source data (e.g. a
		// CSR sparsity structure) is part of the buffer's identity.
		e.buf = append(append(e.buf, ";est="...), b.EstDigest...)
	}
	if b.IsInput {
		e.buf = append(e.buf, ";in"...)
	}
	if b.IsOutput {
		e.buf = append(e.buf, ";out"...)
	}
	e.buf = append(e.buf, '}')
}

func (e *fpEncoder) arg(a Arg) {
	e.buf = append(e.buf, '(')
	e.ints(',', a.Region.Row, a.Region.Col, a.Region.Rows, a.Region.Cols)
	e.buf = append(e.buf, ':')
	for i, b := range a.Bufs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.ref(b)
	}
	e.buf = append(e.buf, ')')
}
