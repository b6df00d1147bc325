// Step-dependency analysis: the hazard pass that turns a linear plan into
// the DAG a pipelined executor may legally execute concurrently. The
// linear plan is one valid topological order of the DAG by construction
// (every dependency points backward in plan order), so sequential replay
// remains a degenerate schedule of the same graph.
package sched

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Deps is the per-step dependency DAG derived from a plan by StepDeps.
// Deps[i] lists the plan indices that must complete before step i may
// start, sorted ascending, deduplicated, and all strictly less than i —
// acyclicity is structural, not checked at runtime.
type Deps struct {
	Deps  [][]int
	Edges int
}

// hostAccess records one host-side touch of a root array region: H2D
// reads the region (it is the copy source), D2H writes it (the copy
// destination). Conflicting accesses — overlapping regions with at least
// one write — must keep their plan order under concurrent execution, or
// a halo region uploaded for one chunk could race with the writeback of
// a neighbouring chunk.
type hostAccess struct {
	step   int
	region graph.Region
	write  bool
	prev   int // index of the root's previous access + 1; 0 ends the list
}

// reader is one step reading a buffer's device copy; prev chains the
// buffer's earlier readers like hostAccess.prev.
type reader struct{ step, prev int }

// StepDeps derives each step's true dependencies from buffer lifetimes
// and the allocator capacity argument. The hazard rules:
//
//   - device data: a step reading a buffer's device copy (launch input,
//     D2H) depends on the step that produced it (H2D or producing
//     launch); a step overwriting a resident buffer (launch output)
//     depends on the previous producer and on every intervening reader.
//   - free: a StepFree depends on the buffer's producer and all of its
//     readers — no use may still be in flight when memory is released.
//   - host data: accesses to overlapping regions of one root array with
//     at least one write (H2D reads host memory, D2H writes it) keep
//     their plan order.
//   - capacity: frees form a chain (each StepFree depends on the
//     previous StepFree), and every allocating step (H2D, launch with a
//     non-resident output) depends on the latest preceding StepFree —
//     and therefore, transitively, on all earlier frees. Any executed
//     allocation prefix then holds at most the plan's own peak residency
//     (see DESIGN.md §9), so concurrent execution can never exceed the
//     memory the planner proved feasible.
//   - sync: a StepSync depends on the launches of its offload unit and
//     on the previous sync, preserving unit boundaries.
//
// StepDeps also statically validates the plan the way the executor would
// at runtime (H2D of an already-resident buffer, free or launch operand
// that is not resident, D2H of a never-uploaded buffer) so a malformed
// plan fails loudly before any goroutine runs it.
func StepDeps(p *Plan) (*Deps, error) {
	n := len(p.Steps)
	d := &Deps{Deps: make([][]int, n)}

	// Per-buffer state is indexed by buffer ID (host accesses by root
	// ID); the reader and host-access lists are chains through two flat
	// arrays, so no per-buffer list is allocated or cleared.
	nb := p.bufferIDs()
	resident := make([]bool, nb) // device copy live
	writer := make([]int, nb)    // step that produced the device copy
	lastReader := make([]int, nb)
	lastAcc := make([]int, nb)
	var readers []reader
	var accs []hostAccess
	// deps collects every step's dependencies; each step's sorted,
	// deduplicated list is a capped sub-slice of it.
	deps := make([]int, 0, 4*n)
	lastFree := -1
	lastSync := -1
	var unitLaunches []int

	// readersOf appends the steps reading b's device copy since its writer.
	readersOf := func(b *graph.Buffer) {
		for r := lastReader[b.ID]; r != 0; r = readers[r-1].prev {
			deps = append(deps, readers[r-1].step)
		}
	}
	read := func(b *graph.Buffer, i int) {
		readers = append(readers, reader{step: i, prev: lastReader[b.ID]})
		lastReader[b.ID] = len(readers)
	}
	// hostDeps appends the prior conflicting accesses of b's root region
	// and records this one.
	hostDeps := func(b *graph.Buffer, i int, write bool) {
		root := b.Root.ID
		for a := lastAcc[root]; a != 0; a = accs[a-1].prev {
			if acc := accs[a-1]; acc.write || write { // read-read never conflicts
				if _, ok := acc.region.Intersect(b.Region); ok {
					deps = append(deps, acc.step)
				}
			}
		}
		accs = append(accs, hostAccess{step: i, region: b.Region, write: write, prev: lastAcc[root]})
		lastAcc[root] = len(accs)
	}

	for i, s := range p.Steps {
		first := len(deps)
		switch s.Kind {
		case StepH2D:
			b := s.Buf
			if resident[b.ID] {
				return nil, fmt.Errorf("sched: step %d: H2D of already-resident %s", i, b)
			}
			deps = append(deps, lastFree) // capacity chain (covers the prior lifetime's free too)
			hostDeps(b, i, false)
			resident[b.ID] = true
			writer[b.ID] = i
			lastReader[b.ID] = 0

		case StepD2H:
			b := s.Buf
			if !resident[b.ID] {
				return nil, fmt.Errorf("sched: step %d: D2H of non-resident %s", i, b)
			}
			deps = append(deps, writer[b.ID])
			hostDeps(b, i, true)
			read(b, i)

		case StepFree:
			b := s.Buf
			if !resident[b.ID] {
				return nil, fmt.Errorf("sched: step %d: free of non-resident %s", i, b)
			}
			deps = append(deps, writer[b.ID])
			readersOf(b)
			deps = append(deps, lastFree) // free chain: total order over frees
			resident[b.ID] = false
			lastReader[b.ID] = 0
			lastFree = i

		case StepLaunch:
			nd := s.Node
			for _, a := range nd.In {
				for _, b := range a.Bufs {
					if !resident[b.ID] {
						return nil, fmt.Errorf("sched: step %d: launch %s with non-resident input %s", i, nd, b)
					}
					deps = append(deps, writer[b.ID])
				}
			}
			allocates := false
			for _, b := range nd.Out.Bufs {
				if resident[b.ID] {
					// Overwrite of a live buffer: wait for its producer
					// and for every reader still entitled to the old value.
					deps = append(deps, writer[b.ID])
					readersOf(b)
				} else {
					allocates = true
				}
			}
			if allocates {
				deps = append(deps, lastFree) // capacity chain
			}
			for _, a := range nd.In {
				for _, b := range a.Bufs {
					read(b, i)
				}
			}
			for _, b := range nd.Out.Bufs {
				resident[b.ID] = true
				writer[b.ID] = i
				lastReader[b.ID] = 0
			}
			unitLaunches = append(unitLaunches, i)

		case StepSync:
			deps = append(deps, lastSync)
			deps = append(deps, unitLaunches...)
			lastSync = i
			unitLaunches = unitLaunches[:0]

		default:
			return nil, fmt.Errorf("sched: step %d: unknown kind %v", i, s.Kind)
		}

		own := dedupDeps(deps[first:], i)
		deps = deps[:first+len(own)]
		if len(own) > 0 {
			d.Deps[i] = own[:len(own):len(own)]
		}
		d.Edges += len(own)
	}
	return d, nil
}

// dedupDeps sorts, deduplicates, and drops sentinel (-1) and self entries
// in place.
func dedupDeps(deps []int, self int) []int {
	slices.Sort(deps)
	out := deps[:0]
	prev := -1
	for _, dep := range deps {
		if dep < 0 || dep == self || dep == prev {
			continue
		}
		out = append(out, dep)
		prev = dep
	}
	return out
}
