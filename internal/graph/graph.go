// Package graph defines the parallel-operator-graph intermediate
// representation at the heart of the framework (paper §3.1): vertices are
// parallel operators, and the data structures they produce/consume are
// Buffers. Memory footprints of every operator are statically defined,
// which is what makes operator splitting and offload/data-transfer
// scheduling possible.
//
// Buffers form region trees: the operator-splitting pass (internal/split)
// partitions a buffer into child buffers that are rectangular regions of
// the same logical root. A node argument (Arg) is a logical tensor covered
// by one or more such buffers, so a single operator launch may read or
// write several sub-buffers (e.g. an unsplit producer whose consumer was
// split writes each consumer-half as its own buffer, as operator C1 does in
// Fig. 3 of the paper).
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/loadbalance"
	"repro/internal/tensor"
)

// Shape is the dimensions of a logical 2-D tensor.
type Shape struct {
	Rows, Cols int
}

// Size returns the number of float elements of the shape.
func (s Shape) Size() int64 { return int64(s.Rows) * int64(s.Cols) }

func (s Shape) String() string { return fmt.Sprintf("%dx%d", s.Rows, s.Cols) }

// Region is a rectangular area within a root buffer's coordinate space.
type Region struct {
	Row, Col   int // top-left corner
	Rows, Cols int // extent
}

// Size returns the number of float elements in the region.
func (r Region) Size() int64 { return int64(r.Rows) * int64(r.Cols) }

// Shape returns the region's extent as a Shape.
func (r Region) Shape() Shape { return Shape{r.Rows, r.Cols} }

// Contains reports whether o lies entirely within r.
func (r Region) Contains(o Region) bool {
	return o.Row >= r.Row && o.Col >= r.Col &&
		o.Row+o.Rows <= r.Row+r.Rows && o.Col+o.Cols <= r.Col+r.Cols
}

// Intersect returns the intersection of r and o and whether it is non-empty.
func (r Region) Intersect(o Region) (Region, bool) {
	row := max(r.Row, o.Row)
	col := max(r.Col, o.Col)
	r2 := min(r.Row+r.Rows, o.Row+o.Rows)
	c2 := min(r.Col+r.Cols, o.Col+o.Cols)
	if r2 <= row || c2 <= col {
		return Region{}, false
	}
	return Region{Row: row, Col: col, Rows: r2 - row, Cols: c2 - col}, true
}

func (r Region) String() string {
	return fmt.Sprintf("[%d:%d,%d:%d]", r.Row, r.Row+r.Rows, r.Col, r.Col+r.Cols)
}

// FullRegion returns the region covering an entire tensor of shape s.
func FullRegion(s Shape) Region { return Region{0, 0, s.Rows, s.Cols} }

// Buffer is one data structure of the template: a logical 2-D float32
// array, possibly a region of a parent root buffer after splitting.
type Buffer struct {
	ID   int
	Name string

	// Root is the top-level buffer this one is a region of; Root == the
	// buffer itself for unsplit buffers.
	Root *Buffer
	// Region locates the buffer within Root's coordinate space. For root
	// buffers it is the full extent.
	Region Region

	// IsInput marks template inputs (resident on the host before execution
	// starts); IsOutput marks buffers that must end up in host memory.
	IsInput  bool
	IsOutput bool

	// Est, when set on a root buffer, estimates the device footprint in
	// floats of any region of the buffer, replacing the closed-form
	// rows×cols rule. Sparse tensors set it so footprints track nnz (the
	// packed CSR storage) rather than the dense logical extent, and the
	// planner, splitter, and admission control all consume it through
	// Size/EstimateRegion without knowing why. Must be deterministic and
	// monotonic in the region. Child buffers inherit the root's estimator.
	Est func(Region) int64
	// EstDigest canonically identifies the data the estimator derives
	// from (e.g. a CSR structure digest). Fingerprint folds it into the
	// graph hash so plans for different sparsity structures never share
	// a cache entry. Required whenever Est is set.
	EstDigest string
}

// Shape returns the buffer's own extent.
func (b *Buffer) Shape() Shape { return b.Region.Shape() }

// EstimateRegion returns the device footprint in floats of the given
// region of the buffer's root: the root's estimator when present, else
// the dense rows×cols size.
func (b *Buffer) EstimateRegion(reg Region) int64 {
	if b.Root != nil && b.Root.Est != nil {
		return b.Root.Est(reg)
	}
	if b.Est != nil { // root buffer under construction (Root not yet set)
		return b.Est(reg)
	}
	return reg.Size()
}

// Size returns the number of floats the buffer occupies on a device. For
// dense buffers this is the region's element count (the paper counts all
// data volumes in floats); buffers with a footprint estimator report the
// estimated packed size instead.
func (b *Buffer) Size() int64 { return b.EstimateRegion(b.Region) }

// Bytes returns the buffer size in bytes (float32 storage).
func (b *Buffer) Bytes() int64 { return b.Size() * 4 }

// IsRoot reports whether the buffer is its own root.
func (b *Buffer) IsRoot() bool { return b.Root == b }

func (b *Buffer) String() string {
	if b.IsRoot() {
		return fmt.Sprintf("%s#%d(%s)", b.Name, b.ID, b.Shape())
	}
	return fmt.Sprintf("%s#%d(%s of %s%s)", b.Name, b.ID, b.Shape(), b.Root.Name, b.Region)
}

// Arg is one logical tensor argument of a node: a region of a root buffer
// covered by one or more buffers. For unsplit graphs each Arg is a single
// root buffer covering itself.
type Arg struct {
	Region Region // logical extent in root coordinates
	Bufs   []*Buffer
}

// Shape returns the logical tensor shape of the argument.
func (a Arg) Shape() Shape { return a.Region.Shape() }

// Root returns the root buffer the argument's buffers belong to.
func (a Arg) Root() *Buffer {
	if len(a.Bufs) == 0 {
		return nil
	}
	return a.Bufs[0].Root
}

// SingleArg wraps one whole buffer as an Arg.
func SingleArg(b *Buffer) Arg {
	return Arg{Region: b.Region, Bufs: []*Buffer{b}}
}

// Covered reports whether the union of the argument's buffers covers its
// logical region. Buffers may overlap one another and may extend beyond
// the region (a part referencing a coarser chunk of a previous partition);
// every cell of the region must be covered.
func (a Arg) Covered() bool {
	// Splits in this library partition along rows only, so every buffer
	// must span the arg's column range; coverage then reduces to a 1-D
	// interval sweep over rows (clipped to the region).
	spans := func(b *Buffer) bool {
		return b.Region.Col <= a.Region.Col && b.Region.Col+b.Region.Cols >= a.Region.Col+a.Region.Cols
	}
	if len(a.Bufs) == 1 { // the sweep over one interval
		r := a.Bufs[0].Region
		return spans(a.Bufs[0]) && r.Row <= a.Region.Row &&
			max(a.Region.Row, r.Row+r.Rows) >= a.Region.Row+a.Region.Rows
	}
	type iv struct{ lo, hi int }
	var stack [8]iv
	rows := stack[:0]
	for _, b := range a.Bufs {
		if !spans(b) {
			return false
		}
		rows = append(rows, iv{b.Region.Row, b.Region.Row + b.Region.Rows})
	}
	slices.SortFunc(rows, func(x, y iv) int { return cmp.Compare(x.lo, y.lo) })
	cur := a.Region.Row
	for _, v := range rows {
		if v.lo > cur {
			return false
		}
		cur = max(cur, v.hi)
	}
	return cur >= a.Region.Row+a.Region.Rows
}

// Operator is a parallel operator from the domain-specific operator
// library. Implementations live in internal/ops. Every operator consumes a
// fixed number of logical inputs and produces exactly one logical output;
// its memory behaviour (shapes, FLOPs, split rules) is statically defined.
type Operator interface {
	// Kind returns a short stable identifier such as "conv2d".
	Kind() string
	// OutShape computes the logical output shape from input shapes, or an
	// error if the inputs are invalid for the operator.
	OutShape(in []Shape) (Shape, error)
	// Run executes the operator kernel: in and out are assembled logical
	// tensors (out pre-allocated to the logical output shape).
	Run(in []*tensor.Tensor, out *tensor.Tensor) error
	// FLOPs estimates floating-point operations for the given shapes.
	FLOPs(in []Shape, out Shape) int64
}

// Splittable is implemented by operators that can be split (paper §3.2).
// InputRegion maps a region of the node's output (in the output root's
// coordinate space) to the region of input i required to compute it (in
// input i's root coordinate space); in carries the node's current input
// arg regions so the rule can clip at boundaries (padded convolution) and
// recover full extents (matmul columns). replicate=true means input i must
// be provided whole regardless of the output region (e.g. a convolution
// kernel matrix, which the paper notes must not be split).
//
// Working in root coordinates makes the rules self-consistent under
// repeated splitting: every operator in the library preserves a fixed
// relation between output-root and input-root coordinates (identity for
// data-parallel ops, halo inflation for convolution, scaling for
// subsampling), so the same rule applies to parts of parts.
type Splittable interface {
	Operator
	InputRegion(i int, out Region, in []Region) (reg Region, replicate bool)
}

// RegionValidator is implemented by operators whose input/output shape
// relation differs between the whole operator and its split parts (a
// padded convolution part reads a halo-inflated, boundary-clipped input
// region that is not the output shape). AddNode uses ValidateRegions
// instead of the OutShape equality check when available.
type RegionValidator interface {
	ValidateRegions(in []Region, out Region) error
}

// RegionRunner is implemented by operators whose kernel needs to know
// where the assembled argument tensors sit in their roots' coordinate
// spaces — e.g. a zero-padded convolution must know whether its input
// region was clipped at the image boundary. Executors call RunRegion when
// available, falling back to Run.
type RegionRunner interface {
	RunRegion(in []*tensor.Tensor, inRegs []Region, out *tensor.Tensor, outReg Region) error
}

// ScheduleBinder is implemented by operators whose kernels shard their
// row loop through a loadbalance.Schedule. BindSchedule returns a copy
// of the operator with the schedule bound (the receiver is not
// modified); BoundSchedule returns the bound schedule, or nil when the
// operator still falls back to loadbalance.Default. The compiler's
// schedule-bind pass uses this to select a balancing policy per
// compilation without the choice leaking into the graph fingerprint:
// schedules change only wall time, never outputs or modeled stats.
type ScheduleBinder interface {
	Operator
	BindSchedule(s loadbalance.Schedule) Operator
	BoundSchedule() loadbalance.Schedule
}

// Node is one operator instance in the graph.
type Node struct {
	ID   int
	Name string
	Op   Operator
	In   []Arg
	Out  Arg
}

// Buffers returns the distinct buffers the node touches (inputs first), in
// first-seen order.
func (n *Node) Buffers() []*Buffer { return appendDistinct(n.InputBuffers(), n.Out.Bufs) }

// InputBuffers returns the distinct buffers read by the node, in
// first-seen order.
func (n *Node) InputBuffers() []*Buffer {
	refs := len(n.Out.Bufs) // room for Buffers to append the outputs
	for _, a := range n.In {
		refs += len(a.Bufs)
	}
	if refs == len(n.Out.Bufs) {
		return nil
	}
	out := make([]*Buffer, 0, refs)
	for _, a := range n.In {
		out = appendDistinct(out, a.Bufs)
	}
	return out
}

// appendDistinct appends the buffers of bs whose IDs out lacks. A node has
// a handful of buffers, so scanning out beats building a set.
func appendDistinct(out, bs []*Buffer) []*Buffer {
next:
	for _, b := range bs {
		for _, o := range out {
			if o.ID == b.ID {
				continue next
			}
		}
		out = append(out, b)
	}
	return out
}

// OutputBuffers returns the distinct buffers written by the node.
func (n *Node) OutputBuffers() []*Buffer { return append([]*Buffer(nil), n.Out.Bufs...) }

// Footprint returns the node's memory requirement in floats: the sum of
// the sizes of all data structures it touches (paper §3.2 step 1).
func (n *Node) Footprint() int64 {
	var total int64
	for _, b := range n.Buffers() {
		total += b.Size()
	}
	return total
}

func (n *Node) String() string {
	return fmt.Sprintf("%s#%d(%s)", n.Name, n.ID, n.Op.Kind())
}

// Graph is a template represented as a DAG of parallel operators.
type Graph struct {
	Nodes []*Node

	nextBufID  int
	nextNodeID int
	buffers    map[int]*Buffer
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{buffers: make(map[int]*Buffer)}
}

// NewBuffer creates a fresh root buffer with the given name and shape.
func (g *Graph) NewBuffer(name string, s Shape) *Buffer {
	b := &Buffer{ID: g.nextBufID, Name: name, Region: FullRegion(s)}
	b.Root = b
	g.nextBufID++
	g.buffers[b.ID] = b
	return b
}

// NewEstBuffer creates a fresh root buffer whose device footprint is
// given by the estimator est (see Buffer.Est) instead of the dense
// rows×cols rule; digest canonically identifies the data est derives
// from and is folded into the graph fingerprint.
func (g *Graph) NewEstBuffer(name string, s Shape, est func(Region) int64, digest string) *Buffer {
	if est == nil || digest == "" {
		panic("graph: NewEstBuffer requires an estimator and a digest")
	}
	b := g.NewBuffer(name, s)
	b.Est = est
	b.EstDigest = digest
	return b
}

// NewChild creates a buffer that is the given region of parent's root.
// The region is expressed in the root's coordinate space.
func (g *Graph) NewChild(name string, root *Buffer, reg Region) *Buffer {
	if !root.IsRoot() {
		root = root.Root
	}
	if !root.Region.Contains(reg) {
		panic(fmt.Sprintf("graph: child region %v outside root %v", reg, root.Region))
	}
	b := &Buffer{ID: g.nextBufID, Name: name, Root: root, Region: reg}
	g.nextBufID++
	g.buffers[b.ID] = b
	return b
}

// AddNode creates a node applying op to the given input args, producing
// the single out arg. Shapes are validated against the operator.
func (g *Graph) AddNode(name string, op Operator, in []Arg, out Arg) (*Node, error) {
	if rv, ok := op.(RegionValidator); ok {
		inRegs := make([]Region, len(in))
		for i, a := range in {
			inRegs[i] = a.Region
		}
		if err := rv.ValidateRegions(inRegs, out.Region); err != nil {
			return nil, fmt.Errorf("graph: node %q: %w", name, err)
		}
	} else {
		shapes := make([]Shape, len(in))
		for i, a := range in {
			shapes[i] = a.Shape()
		}
		want, err := op.OutShape(shapes)
		if err != nil {
			return nil, fmt.Errorf("graph: node %q: %w", name, err)
		}
		if want != out.Shape() {
			return nil, fmt.Errorf("graph: node %q: op %s produces %v, out arg is %v",
				name, op.Kind(), want, out.Shape())
		}
	}
	n := &Node{ID: g.nextNodeID, Name: name, Op: op, In: in, Out: out}
	g.nextNodeID++
	g.Nodes = append(g.Nodes, n)
	return n, nil
}

// MustAddNode is AddNode that panics on error; for template builders whose
// shapes are correct by construction.
func (g *Graph) MustAddNode(name string, op Operator, in []Arg, out Arg) *Node {
	n, err := g.AddNode(name, op, in, out)
	if err != nil {
		panic(err)
	}
	return n
}

// Buffers returns all buffers ever created in the graph, sorted by ID.
func (g *Graph) Buffers() []*Buffer {
	out := make([]*Buffer, 0, len(g.buffers))
	for _, b := range g.buffers {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Buffer returns the buffer with the given ID, or nil.
func (g *Graph) Buffer(id int) *Buffer { return g.buffers[id] }

// NumBufferIDs returns an exclusive upper bound on the IDs of g's buffers:
// IDs are dense, so every buffer a node of g (or of a Subgraph view of it)
// references has an ID in [0, NumBufferIDs()). Passes use it to size
// ID-indexed state.
func (g *Graph) NumBufferIDs() int { return len(g.buffers) }

// LiveBuffers returns the buffers referenced by at least one node, sorted
// by ID. After splitting, replaced parents are no longer live.
func (g *Graph) LiveBuffers() []*Buffer {
	return g.liveWhere(func(*Buffer) bool { return true })
}

// InputBuffers returns live buffers marked as template inputs.
func (g *Graph) InputBuffers() []*Buffer {
	return g.liveWhere(func(b *Buffer) bool { return b.IsInput })
}

// OutputBuffers returns live buffers marked as template outputs.
func (g *Graph) OutputBuffers() []*Buffer {
	return g.liveWhere(func(b *Buffer) bool { return b.IsOutput })
}

// liveWhere returns the live buffers satisfying keep, ascending by ID, or
// nil if there are none.
func (g *Graph) liveWhere(keep func(*Buffer) bool) []*Buffer {
	byID := make([]*Buffer, g.NumBufferIDs())
	mark := func(bs []*Buffer) {
		for _, b := range bs {
			byID[b.ID] = b
		}
	}
	for _, n := range g.Nodes {
		for _, a := range n.In {
			mark(a.Bufs)
		}
		mark(n.Out.Bufs)
	}
	out := byID[:0]
	for _, b := range byID {
		if b != nil && keep(b) {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Producer returns a map from buffer ID to the node that writes it.
func (g *Graph) Producer() map[int]*Node {
	m := make(map[int]*Node)
	for _, n := range g.Nodes {
		for _, b := range n.Out.Bufs {
			m[b.ID] = n
		}
	}
	return m
}

// Consumers returns a map from buffer ID to the nodes that read it.
func (g *Graph) Consumers() map[int][]*Node {
	m := make(map[int][]*Node)
	for _, n := range g.Nodes {
		for _, b := range n.InputBuffers() {
			m[b.ID] = append(m[b.ID], n)
		}
	}
	return m
}

// Subgraph returns a read-only view of g restricted to the given nodes
// (in the given order). Nodes and buffers are shared with g — same
// pointers, same IDs — so buffers cut off from their producers by the
// restriction keep their identity, which is what lets a cross-device
// partition reference one buffer from several per-device subplans. The
// view shares g's buffer registry and must not be mutated (no AddNode /
// NewBuffer / RemoveNode).
func (g *Graph) Subgraph(nodes []*Node) *Graph {
	return &Graph{
		Nodes:      append([]*Node(nil), nodes...),
		nextBufID:  g.nextBufID,
		nextNodeID: g.nextNodeID,
		buffers:    g.buffers,
	}
}

// RemoveNode deletes n from the graph (used by the split pass when a node
// is replaced by its parts).
func (g *Graph) RemoveNode(n *Node) {
	for i, m := range g.Nodes {
		if m == n {
			g.Nodes = append(g.Nodes[:i], g.Nodes[i+1:]...)
			return
		}
	}
}

// Stats summarizes the graph as the paper reports templates: operator and
// data-structure counts plus total footprint.
type Stats struct {
	Operators      int
	DataStructures int
	TotalFloats    int64 // sum of live buffer sizes ("total temporary data")
	MaxFootprint   int64 // largest single-operator footprint
}

// Stats computes summary statistics over live nodes/buffers.
func (g *Graph) Stats() Stats {
	s := Stats{Operators: len(g.Nodes)}
	for _, b := range g.LiveBuffers() {
		s.DataStructures++
		s.TotalFloats += b.Size()
	}
	for _, n := range g.Nodes {
		if fp := n.Footprint(); fp > s.MaxFootprint {
			s.MaxFootprint = fp
		}
	}
	return s
}
