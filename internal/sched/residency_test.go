package sched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/templates"
)

func edgePlan(t *testing.T) (*Plan, *Plan) {
	t.Helper()
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 64, ImageW: 48, KernelSize: 3, Orientations: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Heuristic(g, gpu.TeslaC870().PlannerCapacity())
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 64, ImageW: 48, KernelSize: 3, Orientations: 2})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Heuristic(g2, gpu.TeslaC870().PlannerCapacity())
	if err != nil {
		t.Fatal(err)
	}
	return p, p2
}

func TestAnalyzeResidencyClassification(t *testing.T) {
	p, _ := edgePlan(t)
	spec := gpu.TeslaC870()
	r, err := AnalyzeResidency(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Shareable) == 0 {
		t.Fatal("edge-detect has read-only inputs (image, kernels); expected shareable buffers")
	}

	written := make(map[int]bool)
	h2d := make(map[int]int)
	for _, s := range p.Steps {
		switch s.Kind {
		case StepD2H:
			written[s.Buf.ID] = true
		case StepLaunch:
			for _, b := range s.Node.OutputBuffers() {
				written[b.ID] = true
			}
		case StepH2D:
			h2d[s.Buf.ID]++
		}
	}
	var sum int64
	bufs := p.Buffers()
	for _, rb := range r.Shareable {
		if written[rb.ID] {
			t.Fatalf("shareable buffer %d (%s) is written by the plan", rb.ID, rb.Name)
		}
		if h2d[rb.ID] != len(rb.Steps) || len(rb.Steps) == 0 {
			t.Fatalf("buffer %d: recorded %d H2D steps, plan has %d", rb.ID, len(rb.Steps), h2d[rb.ID])
		}
		for _, si := range rb.Steps {
			if p.Steps[si].Kind != StepH2D || p.Steps[si].Buf.ID != rb.ID {
				t.Fatalf("buffer %d: step %d is not its H2D", rb.ID, si)
			}
		}
		if bufs[rb.Ordinal].ID != rb.ID {
			t.Fatalf("buffer %d: ordinal %d names buffer %d", rb.ID, rb.Ordinal, bufs[rb.Ordinal].ID)
		}
		sum += rb.Bytes
	}
	if sum != r.SharedBytes {
		t.Fatalf("SharedBytes = %d, sum of shareable = %d", r.SharedBytes, sum)
	}
	if r.TransientPeakBytes+r.SharedBytes < p.PeakFloats*4 {
		t.Fatalf("transient (%d) + shared (%d) < plan peak (%d): bound violated",
			r.TransientPeakBytes, r.SharedBytes, p.PeakFloats*4)
	}
	if r.TransientPeakBytes > p.PeakFloats*4 {
		t.Fatalf("transient peak %d exceeds full peak %d", r.TransientPeakBytes, p.PeakFloats*4)
	}
}

// TestAnalyzeResidencyKeysStableAcrossCompiles checks what makes an
// ordinal a sound pin key: two compilations of equal-fingerprint graphs
// (edgePlan builds one template config twice) list, ordinal for ordinal,
// the same region of the same input root with the same size and H2D
// steps.
func TestAnalyzeResidencyKeysStableAcrossCompiles(t *testing.T) {
	p, p2 := edgePlan(t)
	spec := gpu.TeslaC870()
	r1, err := AnalyzeResidency(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := AnalyzeResidency(p2, spec)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		ord          int
		reg, rootReg graph.Region
		bytes        int64
		steps        string
	}
	list := func(p *Plan, r *Residency) []key {
		bufs := p.Buffers()
		var out []key
		for _, rb := range r.Shareable {
			b := bufs[rb.Ordinal]
			out = append(out, key{rb.Ordinal, b.Region, b.Root.Region, rb.Bytes, fmt.Sprint(rb.Steps)})
		}
		return out
	}
	k1, k2 := list(p, r1), list(p2, r2)
	if len(k1) == 0 || !reflect.DeepEqual(k1, k2) {
		t.Fatalf("shareable listings differ across equal-fingerprint compilations:\n%v\n%v", k1, k2)
	}
}

func TestAnalyzeResidencyLeadAndTail(t *testing.T) {
	p, _ := edgePlan(t)
	spec := gpu.TeslaC870()
	r, err := AnalyzeResidency(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The first offload unit's H2Ds precede every launch, so leads exist.
	if len(r.LeadSteps) == 0 {
		t.Fatal("expected prefetchable lead H2D steps")
	}
	dev := gpu.New(spec)
	var want float64
	for _, l := range r.LeadSteps {
		if l.Sec <= 0 {
			t.Fatalf("lead step for buffer %d has non-positive duration", l.BufID)
		}
		want += l.Sec
	}
	if got := r.LeadSec(nil); got != want {
		t.Fatalf("LeadSec(nil) = %g, want %g", got, want)
	}
	// Marking one lead buffer resident removes exactly its duration.
	first := r.LeadSteps[0]
	got := r.LeadSec(map[int]bool{first.BufID: true})
	var excl float64
	for _, l := range r.LeadSteps {
		if l.BufID != first.BufID {
			excl += l.Sec
		}
	}
	if got != excl {
		t.Fatalf("LeadSec with resident buffer = %g, want %g", got, excl)
	}
	if r.TailSec <= 0 {
		t.Fatal("plan ends with compute after its last H2D; TailSec should be positive")
	}
	_ = dev
}
