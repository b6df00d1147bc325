package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/templates"
	"repro/internal/tensor"
)

// PipelineRow is one workload of the pipelined-execution extension
// experiment: the same materialized plan run sequentially and pipelined
// (concurrent DMA goroutine + compute pool) for the bit-identity check,
// plus the deterministic simulated-clock overlap speedup of the same plan
// on an async-transfer device. How much host time pipelining saves is
// the repo benchmark's exec.pipe_over_seq (bench/README.md), measured at
// two threads under a protocol; nothing here reads the host clock.
type PipelineRow struct {
	Template string `json:"template"`
	Input    string `json:"input"`
	Steps    int    `json:"steps"`

	// Simulated-clock speedup of the identical plan with overlapped
	// engines (Tesla C1060 timing model): serialized total vs two-engine
	// makespan. Machine-independent.
	ModeledSyncSec    float64 `json:"modeled_sync_seconds"`
	ModeledOverlapSec float64 `json:"modeled_overlap_seconds"`
	ModeledSpeedup    float64 `json:"modeled_speedup"`

	// OutputsEqual records the bit-identity check between the sequential
	// and pipelined runs.
	OutputsEqual bool `json:"outputs_equal"`
}

// pipelineWorkload is one materialized workload of the experiment.
type pipelineWorkload struct {
	template string
	input    string
	build    func() (*graph.Graph, error)
	// memBytes sizes the device arena so plans actually chunk, evict,
	// and re-upload — the regime the pipeline targets.
	memBytes int64
}

// pipelineWorkloads returns the experiment's workload set: scaled-down
// versions of the paper's two templates (materialized execution computes
// real convolutions on the host, so paper-scale images would take hours
// where accounting mode takes milliseconds).
func pipelineWorkloads() []pipelineWorkload {
	edge := func(dim int) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			g, _, err := templates.EdgeDetect(templates.EdgeConfig{
				ImageH: dim, ImageW: dim, KernelSize: 16, Orientations: 4,
				Combine: templates.CombineMax})
			return g, err
		}
	}
	return []pipelineWorkload{
		{"Edge detection", "256x256", edge(256), 640 << 10},
		{"Edge detection", "512x512", edge(512), 2 << 20},
		{"Small CNN", "320x240", func() (*graph.Graph, error) {
			g, _, err := templates.CNN(templates.SmallCNN(320, 240))
			return g, err
		}, 2 << 20},
		{"Edge detection", "1024x1024", edge(1024), 8 << 20},
		{"Large CNN", "320x240", func() (*graph.Graph, error) {
			g, _, err := templates.CNN(templates.LargeCNN(320, 240))
			return g, err
		}, 4 << 20},
	}
}

// randomInputs fills every template input with deterministic random data.
func randomInputs(g *graph.Graph, seed int64) exec.Inputs {
	rng := rand.New(rand.NewSource(seed))
	in := exec.Inputs{}
	for _, b := range g.InputBuffers() {
		sh := b.Shape()
		t := tensor.New(sh.Rows, sh.Cols)
		for r := 0; r < sh.Rows; r++ {
			row := t.Row(r)
			for i := range row {
				row[i] = rng.Float32()*2 - 1
			}
		}
		in[b.ID] = t
	}
	return in
}

// Pipeline checks the pipelined executor against sequential execution
// on materialized workloads — one run per side, outputs compared bit for
// bit — and models the overlap speedup of the same plan on the Tesla
// C1060 timing model, which does not depend on host parallelism.
func Pipeline() ([]PipelineRow, error) {
	var rows []PipelineRow
	for _, wl := range pipelineWorkloads() {
		g, err := wl.build()
		if err != nil {
			return nil, err
		}
		// Inputs are keyed by the template's root buffers, so build them
		// before the split pass replaces inputs with region children.
		in := randomInputs(g, 11)
		spec := gpu.Custom("pipeline-arena", wl.memBytes)
		// Prefetch raises the residency high-watermark; reserve extra
		// fragmentation headroom as the overlap experiment does.
		spec.Headroom = 0.7
		capacity := spec.PlannerCapacity()
		if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
			return nil, err
		}
		plan, err := sched.Heuristic(g, capacity)
		if err != nil {
			return nil, err
		}
		// The prefetch hoist is what decouples the next chunk's upload
		// from the current chunk's kernels; both sides run the same plan.
		plan = sched.PrefetchH2D(plan, capacity*9/10)

		seqRep, err := exec.Run(context.Background(), g, plan, in, exec.Options{
			Mode: exec.Materialized, Device: gpu.New(spec)})
		if err != nil {
			return nil, fmt.Errorf("%s %s sequential: %w", wl.template, wl.input, err)
		}
		pipeRep, err := exec.Run(context.Background(), g, plan, in, exec.Options{
			Mode: exec.Materialized, Device: gpu.New(spec), Pipeline: true})
		if err != nil {
			return nil, fmt.Errorf("%s %s pipelined: %w", wl.template, wl.input, err)
		}
		equal := len(seqRep.Outputs) == len(pipeRep.Outputs)
		for id, w := range seqRep.Outputs {
			if !pipeRep.Outputs[id].Equal(w) {
				equal = false
			}
		}

		// Modeled overlap on the async part: same plan, simulated clock.
		model := gpu.TeslaC1060()
		model.MemoryBytes = wl.memBytes
		model.Headroom = spec.Headroom
		syncRep, err := exec.Run(context.Background(), g, plan, nil, exec.Options{
			Mode: exec.Accounting, Device: gpu.New(model)})
		if err != nil {
			return nil, fmt.Errorf("%s %s modeled sync: %w", wl.template, wl.input, err)
		}
		overlapRep, err := exec.Run(context.Background(), g, plan, nil, exec.Options{
			Mode: exec.Accounting, Device: gpu.New(model), Overlap: true})
		if err != nil {
			return nil, fmt.Errorf("%s %s modeled overlap: %w", wl.template, wl.input, err)
		}

		rows = append(rows, PipelineRow{
			Template:          wl.template,
			Input:             wl.input,
			Steps:             len(plan.Steps),
			ModeledSyncSec:    syncRep.Stats.TotalTime(),
			ModeledOverlapSec: overlapRep.Stats.TotalTime(),
			ModeledSpeedup:    syncRep.Stats.TotalTime() / overlapRep.Stats.TotalTime(),
			OutputsEqual:      equal,
		})
	}
	return rows, nil
}
