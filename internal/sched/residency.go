// Residency analysis: classifies a plan's buffers into read-only
// shareable state (template inputs never written by any step — CNN
// weights, convolution kernels, CSR structure arrays) and transient
// state, so a serving layer can pin the shareable set on a device across
// jobs that share a fingerprint and elide its H2D replay. The analysis
// also extracts the plan's cross-job overlap shape for rolling
// admission: which H2D steps can prefetch before any kernel dependency
// (the lead) and how much compute drains after the last transfer (the
// tail).
package sched

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// ResidentBuf is one read-only-shareable buffer of a plan.
type ResidentBuf struct {
	// ID is the buffer's graph ID within this compilation.
	ID   int
	Name string
	// Ordinal is the buffer's position in the plan's Buffers(). Equal
	// fingerprints compile to identical plans, so it names the same region
	// of the same input root in every such compilation: with the
	// fingerprint it keys the serving layer's pinned sets (gpu.PinKey).
	Ordinal int
	Bytes   int64
	Floats  int64
	// Steps lists the plan indices of the buffer's H2D steps — the
	// transfers an executor may elide when the buffer is resident.
	Steps []int
}

// LeadStep is one prefetchable H2D step: it has no transitive dependency
// on any kernel launch, so a rolling-admission scheduler may issue it
// while the previous job's compute still drains on the device.
type LeadStep struct {
	// BufID is the transferred buffer's graph ID.
	BufID  int
	Floats int64
	// Sec is the transfer's modeled DMA duration on the analyzed device.
	Sec float64
}

// Residency is the per-plan residency artifact computed by Analyze. It
// is immutable after analysis and shared by every execution of the
// compiled plan.
type Residency struct {
	// Shareable lists the read-only-shareable buffers in plan-buffer
	// order (ascending ID).
	Shareable []ResidentBuf
	// SharedBytes is the total size of the shareable set.
	SharedBytes int64
	// TransientPeakBytes is the plan-order peak residency counting only
	// non-shareable buffers — the reservation a job needs on a device
	// already holding its pinned set. TransientPeakBytes + SharedBytes >=
	// the plan's full peak by construction.
	TransientPeakBytes int64
	// LeadSteps are the plan's prefetchable H2D steps in plan order.
	LeadSteps []LeadStep
	// TailSec is the modeled compute+sync time after the plan's last H2D
	// step — the window a successor job's prefetches can hide inside.
	TailSec float64
}

// LeadSec returns the total modeled DMA time of the lead steps whose
// buffer is NOT in the resident set — the prefetch work a device would
// actually issue for this plan given what it already holds.
func (r *Residency) LeadSec(resident map[int]bool) float64 {
	if r == nil {
		return 0
	}
	var s float64
	for _, l := range r.LeadSteps {
		if !resident[l.BufID] {
			s += l.Sec
		}
	}
	return s
}

// AnalyzeResidency classifies the plan's buffers and extracts its
// rolling-admission shape for the given device. A buffer is shareable
// when it is a region of a template input root, is never an output of
// any launch, is never a D2H target, and has at least one H2D step —
// i.e. the device copy is a pure function of host data that no step
// mutates on either side.
func AnalyzeResidency(p *Plan, spec gpu.Spec) (*Residency, error) {
	clk := Clock{Spec: spec}

	nb := p.bufferIDs()
	written := make([]bool, nb) // launch output or D2H target
	// h2d[h2dAt[id]:h2dAt[id+1]] are buffer id's H2D step indices,
	// ascending: counted, summed to each buffer's end, filled back to front.
	h2dAt := make([]int, nb+1)
	lastH2D := -1
	for i, s := range p.Steps {
		switch s.Kind {
		case StepH2D:
			h2dAt[s.Buf.ID]++
			lastH2D = i
		case StepD2H:
			written[s.Buf.ID] = true
		case StepLaunch:
			for _, b := range s.Node.Out.Bufs {
				written[b.ID] = true
			}
		}
	}
	for id := 1; id <= nb; id++ {
		h2dAt[id] += h2dAt[id-1]
	}
	h2d := make([]int, h2dAt[nb])
	for i := len(p.Steps) - 1; i >= 0; i-- {
		if s := p.Steps[i]; s.Kind == StepH2D {
			h2dAt[s.Buf.ID]--
			h2d[h2dAt[s.Buf.ID]] = i
		}
	}

	res := &Residency{}
	shareable := make([]bool, nb)
	for ord, b := range p.Buffers() {
		lo, hi := h2dAt[b.ID], h2dAt[b.ID+1]
		if lo == hi || written[b.ID] || b.Root == nil || !b.Root.IsInput {
			continue
		}
		res.Shareable = append(res.Shareable, ResidentBuf{
			ID:      b.ID,
			Name:    b.Name,
			Ordinal: ord,
			Bytes:   b.Bytes(),
			Floats:  b.Size(),
			Steps:   h2d[lo:hi:hi],
		})
		res.SharedBytes += b.Bytes()
		shareable[b.ID] = true
	}

	// Transient peak: replay the plan-order residency counting only
	// non-shareable buffers (the shareable set is accounted once,
	// pinned, by the serving ledger).
	live := make([]int64, nb) // bytes of each resident non-shareable buffer
	var resident, peak int64
	enter := func(b *graph.Buffer) {
		if !shareable[b.ID] && live[b.ID] == 0 {
			live[b.ID] = b.Bytes()
			resident += live[b.ID]
		}
	}
	for _, s := range p.Steps {
		switch s.Kind {
		case StepH2D:
			enter(s.Buf)
			peak = max(peak, resident)
		case StepLaunch:
			for _, b := range s.Node.Out.Bufs {
				enter(b)
			}
			peak = max(peak, resident)
		case StepFree:
			resident -= live[s.Buf.ID]
			live[s.Buf.ID] = 0
		}
	}
	res.TransientPeakBytes = peak

	// Lead steps: H2D steps with no transitive dependency on a launch.
	// Deps point strictly backward, so one forward pass suffices.
	deps, err := StepDeps(p)
	if err != nil {
		return nil, fmt.Errorf("sched: residency analysis: %w", err)
	}
	tainted := make([]bool, len(p.Steps))
	for i, s := range p.Steps {
		if s.Kind == StepLaunch {
			tainted[i] = true
			continue
		}
		for _, d := range deps.Deps[i] {
			if tainted[d] {
				tainted[i] = true
				break
			}
		}
		if s.Kind == StepH2D && !tainted[i] {
			res.LeadSteps = append(res.LeadSteps, LeadStep{
				BufID:  s.Buf.ID,
				Floats: s.Buf.Size(),
				Sec:    clk.cost(s),
			})
		}
	}

	// Tail: modeled compute+sync time after the last H2D step.
	for _, s := range p.Steps[lastH2D+1:] {
		if s.Kind == StepLaunch || s.Kind == StepSync {
			res.TailSec += clk.cost(s)
		}
	}
	return res, nil
}
