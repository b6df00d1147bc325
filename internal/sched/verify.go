package sched

import (
	"fmt"

	"repro/internal/graph"
)

// Verify statically checks that a plan is executable on a device with the
// given capacity (floats): every transfer has a valid source, every
// launch's operands are resident, residency never exceeds the capacity,
// each operator launches exactly once in dependency order, and every
// template output reaches the host. It is the executor's rule set without
// a device, usable on plans from any source (heuristic, PB, prefetched,
// hand-written).
func Verify(g *graph.Graph, plan *Plan, capacity int64) error {
	return VerifyPart(g, plan, capacity, nil, nil)
}

// VerifyPart is Verify for one per-device subplan of a cross-device
// partition: hostValid marks cut buffers whose host copies another part
// provides before this plan starts, and ship marks cut buffers this plan
// must deliver to the host for other parts. Verify is VerifyPart with
// both sets nil.
func VerifyPart(g *graph.Graph, plan *Plan, capacity int64, hostValid, ship map[int]bool) error {
	if g == nil {
		return fmt.Errorf("sched: verify: nil graph")
	}
	if plan == nil {
		return fmt.Errorf("sched: verify: nil plan")
	}
	if capacity <= 0 {
		return fmt.Errorf("sched: verify: capacity %d must be positive", capacity)
	}
	// State is indexed by buffer ID (live[id] says the graph references
	// it) and by node ID (inGraph), so a plan step naming a buffer or node
	// from another graph fails the range check instead of indexing.
	nb := g.NumBufferIDs()
	live := make([]bool, nb)
	resident := make([]bool, nb)
	validHost := make([]bool, nb)
	prod := producerByID(g)
	for _, b := range g.LiveBuffers() {
		live[b.ID] = true
		validHost[b.ID] = b.IsInput || b.Root.IsInput || hostValid[b.ID]
	}
	nodeIDs := nodeIDBound(g)
	inGraph := make([]bool, nodeIDs)
	launched := make([]bool, nodeIDs)
	for _, n := range g.Nodes {
		inGraph[n.ID] = true
	}
	var used int64
	nResident := 0

	for si, s := range plan.Steps {
		// Buffer and node references must point into this graph: a plan
		// built for (or corrupted with) a different graph is not
		// executable against it.
		switch s.Kind {
		case StepH2D, StepD2H, StepFree:
			if s.Buf == nil {
				return fmt.Errorf("sched: step %d: %s with nil buffer", si, s.Kind)
			}
			if s.Buf.ID < 0 || s.Buf.ID >= nb || !live[s.Buf.ID] {
				return fmt.Errorf("sched: step %d: %s of %s not in the graph", si, s.Kind, s.Buf)
			}
		case StepLaunch:
			if s.Node == nil {
				return fmt.Errorf("sched: step %d: launch with nil node", si)
			}
			if s.Node.ID < 0 || s.Node.ID >= nodeIDs || !inGraph[s.Node.ID] {
				return fmt.Errorf("sched: step %d: launch of %s not in the graph", si, s.Node)
			}
		}
		switch s.Kind {
		case StepH2D:
			b := s.Buf
			if resident[b.ID] {
				return fmt.Errorf("sched: step %d: H2D of already-resident %s", si, b)
			}
			if !validHost[b.ID] {
				return fmt.Errorf("sched: step %d: H2D of %s without a valid host copy", si, b)
			}
			resident[b.ID] = true
			nResident++
			used += b.Size()
		case StepD2H:
			b := s.Buf
			if !resident[b.ID] {
				return fmt.Errorf("sched: step %d: D2H of non-resident %s", si, b)
			}
			// The device copy is only meaningful if the producer ran (or
			// the buffer was loaded from the host).
			if p := prod[b.ID]; p != nil && !launched[p.ID] {
				return fmt.Errorf("sched: step %d: D2H of %s before its producer %s", si, b, p)
			}
			validHost[b.ID] = true
		case StepFree:
			b := s.Buf
			if !resident[b.ID] {
				return fmt.Errorf("sched: step %d: free of non-resident %s", si, b)
			}
			resident[b.ID] = false
			nResident--
			used -= b.Size()
		case StepLaunch:
			n := s.Node
			if launched[n.ID] {
				return fmt.Errorf("sched: step %d: node %s launched twice", si, n)
			}
			// Its dependencies are the other producers of what it reads,
			// in Graph.Deps order. (An ID out of range is another graph's
			// buffer, which the residency check below rejects.)
			for _, a := range n.In {
				for _, b := range a.Bufs {
					if b.ID >= nb {
						continue
					}
					if d := prod[b.ID]; d != nil && d.ID != n.ID && !launched[d.ID] {
						return fmt.Errorf("sched: step %d: node %s before its dependency %s", si, n, d)
					}
				}
			}
			for _, a := range n.In {
				for _, b := range a.Bufs {
					if b.ID >= nb || !resident[b.ID] {
						return fmt.Errorf("sched: step %d: launch %s with non-resident input %s", si, n, b)
					}
				}
			}
			for _, b := range n.Out.Bufs {
				if b.ID >= nb {
					return fmt.Errorf("sched: step %d: launch of %s not in the graph", si, n)
				}
				if !resident[b.ID] {
					resident[b.ID] = true
					nResident++
					used += b.Size()
				}
				validHost[b.ID] = false
			}
			launched[n.ID] = true
		case StepSync:
			// no state
		default:
			return fmt.Errorf("sched: step %d: unknown step kind %v", si, s.Kind)
		}
		if used > capacity {
			return fmt.Errorf("sched: step %d: residency %d exceeds capacity %d", si, used, capacity)
		}
	}

	for _, n := range g.Nodes {
		if !launched[n.ID] {
			return fmt.Errorf("sched: node %s never launched", n)
		}
	}
	for _, b := range g.OutputBuffers() {
		if !validHost[b.ID] {
			return fmt.Errorf("sched: template output %s never reached the host", b)
		}
	}
	for _, b := range g.LiveBuffers() {
		if ship[b.ID] && !validHost[b.ID] {
			return fmt.Errorf("sched: cut buffer %s never reached the host", b)
		}
	}
	if nResident != 0 {
		return fmt.Errorf("sched: %d buffers left resident at plan end", nResident)
	}
	return nil
}
