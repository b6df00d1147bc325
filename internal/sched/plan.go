// Package sched implements offload-unit and data-transfer scheduling
// (paper §3.3): given a feasible (post-splitting) operator graph and a GPU
// memory capacity, it produces an execution plan — the exact sequence of
// GPU offload operations and host↔GPU data transfers. It provides the
// paper's baseline (per-operator in/out copies, no persistent device
// state), the depth-first + latest-time-of-use heuristic, and an
// exhaustive order search used to cross-check the PB-optimal results on
// small graphs.
package sched

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// ErrInfeasible marks scheduling failures where no plan fits the memory
// capacity (an oversized node, or no feasible transfer order). Detect with
// errors.Is; core wraps it as core.ErrInfeasible.
var ErrInfeasible = errors.New("sched: infeasible under capacity")

// StepKind enumerates plan step types.
type StepKind int

// Plan step kinds.
const (
	StepH2D    StepKind = iota // copy buffer host -> GPU
	StepD2H                    // copy buffer GPU -> host
	StepFree                   // release buffer's GPU memory
	StepLaunch                 // execute an operator on the GPU
	StepSync                   // host-GPU synchronization at an offload-unit boundary
)

func (k StepKind) String() string {
	switch k {
	case StepH2D:
		return "H2D"
	case StepD2H:
		return "D2H"
	case StepFree:
		return "FREE"
	case StepLaunch:
		return "LAUNCH"
	case StepSync:
		return "SYNC"
	}
	return fmt.Sprintf("StepKind(%d)", int(k))
}

// Step is one entry of an execution plan.
type Step struct {
	Kind StepKind
	Buf  *graph.Buffer // for H2D/D2H/Free
	Node *graph.Node   // for Launch
}

func (s Step) String() string {
	switch s.Kind {
	case StepLaunch:
		return fmt.Sprintf("%-6s %s", s.Kind, s.Node)
	case StepSync:
		return "SYNC"
	}
	return fmt.Sprintf("%-6s %s", s.Kind, s.Buf)
}

// Plan is an executable schedule: operator order plus inferred transfers.
type Plan struct {
	Steps []Step
	Order []*graph.Node
	// PeakFloats is the maximum simultaneous GPU residency the plan
	// requires, in floats.
	PeakFloats int64
}

// Buffers returns the distinct buffers the plan touches — transfer and
// free targets plus every buffer of each launched node — sorted by ID.
// This is the single walk shared by code generation, the executor, and
// residency reporting, so they can never disagree about the plan's
// working set.
func (p *Plan) Buffers() []*graph.Buffer {
	byID := make([]*graph.Buffer, p.bufferIDs())
	p.eachBuffer(func(b *graph.Buffer) { byID[b.ID] = b })
	out := byID[:0]
	for _, b := range byID {
		if b != nil {
			out = append(out, b)
		}
	}
	return out
}

// eachBuffer calls f on every buffer reference of the plan's steps, in
// step order: a transfer or free target, or each buffer of a launch.
func (p *Plan) eachBuffer(f func(*graph.Buffer)) {
	for _, s := range p.Steps {
		if s.Buf != nil {
			f(s.Buf)
		}
		if s.Node != nil {
			for _, a := range s.Node.In {
				for _, b := range a.Bufs {
					f(b)
				}
			}
			for _, b := range s.Node.Out.Bufs {
				f(b)
			}
		}
	}
}

// bufferIDs returns an exclusive upper bound on the IDs of the buffers
// the plan references and of their roots, for sizing ID-indexed state.
func (p *Plan) bufferIDs() int {
	nb := 0
	p.eachBuffer(func(b *graph.Buffer) {
		nb = max(nb, b.ID+1)
		if b.Root != nil {
			nb = max(nb, b.Root.ID+1)
		}
	})
	return nb
}

// producerByID returns, indexed by buffer ID, the node of g writing each
// buffer (the last one, as Graph.Producer reports), or nil.
func producerByID(g *graph.Graph) []*graph.Node {
	prod := make([]*graph.Node, g.NumBufferIDs())
	for _, n := range g.Nodes {
		for _, b := range n.Out.Bufs {
			prod[b.ID] = n
		}
	}
	return prod
}

// nodeIDBound returns an exclusive upper bound on g's node IDs, for
// sizing ID-indexed state.
func nodeIDBound(g *graph.Graph) int {
	bound := 0
	for _, n := range g.Nodes {
		bound = max(bound, n.ID+1)
	}
	return bound
}

// kernelTime returns dev's modeled duration of launching n — the cost the
// executor charges — and the bytes n touches.
func kernelTime(dev *gpu.Device, n *graph.Node) (float64, int64) {
	var bytes int64
	for _, b := range n.Buffers() {
		bytes += b.Bytes()
	}
	in := make([]graph.Shape, len(n.In))
	for i, a := range n.In {
		in[i] = a.Shape()
	}
	return dev.KernelTime(n.Op.FLOPs(in, n.Out.Shape()), n.Out.Region.Size(), bytes), bytes
}

// TransferFloats returns the host→device and device→host float volumes of
// the plan, the paper's optimization objective.
func (p *Plan) TransferFloats() (h2d, d2h int64) {
	for _, s := range p.Steps {
		switch s.Kind {
		case StepH2D:
			h2d += s.Buf.Size()
		case StepD2H:
			d2h += s.Buf.Size()
		}
	}
	return h2d, d2h
}

// TotalTransferFloats returns h2d+d2h.
func (p *Plan) TotalTransferFloats() int64 {
	h, d := p.TransferFloats()
	return h + d
}

// Counts returns the number of steps of each kind, syncs excluded.
func (p *Plan) Counts() (h2d, d2h, free, launch int) {
	for _, s := range p.Steps {
		switch s.Kind {
		case StepH2D:
			h2d++
		case StepD2H:
			d2h++
		case StepFree:
			free++
		case StepLaunch:
			launch++
		}
	}
	return
}

func (p *Plan) String() string {
	var b strings.Builder
	h, d := p.TransferFloats()
	fmt.Fprintf(&b, "plan: %d steps, %d ops, transfers H2D=%d D2H=%d floats, peak=%d\n",
		len(p.Steps), len(p.Order), h, d, p.PeakFloats)
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "%4d: %s\n", i, s)
	}
	return b.String()
}

// LowerBound returns the unavoidable transfer volume for the graph: every
// template input root copied in once plus every output buffer copied out
// once ("I/O transfers only" in Table 1). Split graphs count each input
// root once (regardless of how many region children reference it) and sum
// the partitioned output children.
func LowerBound(g *graph.Graph) int64 {
	var total int64
	seenRoot := make(map[int]bool)
	for _, b := range g.LiveBuffers() {
		if b.Root.IsInput && !seenRoot[b.Root.ID] {
			seenRoot[b.Root.ID] = true
			total += b.Root.Size()
		}
		if b.IsOutput {
			total += b.Size()
		}
	}
	return total
}
