package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/sched"
	"repro/internal/workload"
)

// PipelineRow is one workload of the pipelined-execution extension
// experiment: the same materialized plan run sequentially and pipelined
// (concurrent DMA goroutine + compute pool) for the bit-identity check,
// plus the deterministic simulated-clock overlap speedup of the same plan
// on an async-transfer device. How much host time pipelining saves is
// the repo benchmark's exec.pipe_over_seq (bench/README.md), measured at
// two threads under a protocol; nothing here reads the host clock.
type PipelineRow struct {
	Template string
	Input    string
	Steps    int

	// Simulated-clock speedup of the identical plan with overlapped
	// engines (Tesla C1060 timing model): serialized total over two-engine
	// makespan. Machine-independent.
	ModeledSpeedup float64

	// OutputsEqual records the bit-identity check between the sequential
	// and pipelined runs.
	OutputsEqual bool
}

// pipelineWorkload is one materialized workload of the experiment.
type pipelineWorkload struct {
	template string
	spec     workload.Spec
	// memBytes sizes the device arena so plans actually chunk, evict,
	// and re-upload — the regime the pipeline targets.
	memBytes int64
}

// pipelineWorkloads returns the experiment's workload set: scaled-down
// versions of the paper's two templates (materialized execution computes
// real convolutions on the host, so paper-scale images would take hours
// where accounting mode takes milliseconds).
func pipelineWorkloads() []pipelineWorkload {
	return []pipelineWorkload{
		{"Edge detection", paperEdge(256), 640 << 10},
		{"Edge detection", paperEdge(512), 2 << 20},
		{"Small CNN", workload.Spec{Template: "cnn-small", H: 320, W: 240}, 2 << 20},
		{"Edge detection", paperEdge(1024), 8 << 20},
		{"Large CNN", workload.Spec{Template: "cnn-large", H: 320, W: 240}, 4 << 20},
	}
}

// Pipeline checks the pipelined executor against sequential execution
// on materialized workloads — one run per side, outputs compared bit for
// bit — and models the overlap speedup of the same plan on the Tesla
// C1060 timing model, which does not depend on host parallelism.
func Pipeline() ([]PipelineRow, error) {
	var rows []PipelineRow
	for _, wl := range pipelineWorkloads() {
		wl.spec.Materialized, wl.spec.Seed = true, 11
		g, in, err := wl.spec.Build()
		if err != nil {
			return nil, err
		}
		input := fmt.Sprintf("%dx%d", wl.spec.H, wl.spec.W)
		spec := gpu.Custom("pipeline-arena", wl.memBytes)
		// Prefetch raises the residency high-watermark; reserve extra
		// fragmentation headroom as the overlap experiment does.
		spec.Headroom = 0.7
		// The pipeline compile adds the prefetch pass, whose H2D hoist is
		// what decouples the next chunk's upload from the current chunk's
		// kernels; both sides run the same plan.
		c, err := compile(g, spec, core.WithPipeline())
		if err != nil {
			return nil, err
		}
		g, plan := c.Graph, c.Plan

		seqRep, err := exec.Run(context.Background(), g, plan, in, exec.Options{
			Mode: exec.Materialized, Device: gpu.New(spec)})
		if err != nil {
			return nil, fmt.Errorf("%s %s sequential: %w", wl.template, input, err)
		}
		pipeRep, err := exec.Run(context.Background(), g, plan, in, exec.Options{
			Mode: exec.Materialized, Device: gpu.New(spec), Pipeline: true})
		if err != nil {
			return nil, fmt.Errorf("%s %s pipelined: %w", wl.template, input, err)
		}
		equal := len(seqRep.Outputs) == len(pipeRep.Outputs)
		for id, w := range seqRep.Outputs {
			if !pipeRep.Outputs[id].Equal(w) {
				equal = false
			}
		}

		// Modeled overlap on the async part: same plan, folded serially
		// and with two engines.
		model := gpu.TeslaC1060()
		serial := sched.Fold(plan, model, false, nil)
		overlapped := sched.Fold(plan, model, true, nil)

		rows = append(rows, PipelineRow{
			Template:       wl.template,
			Input:          input,
			Steps:          len(plan.Steps),
			ModeledSpeedup: serial.TotalTime() / overlapped.TotalTime(),
			OutputsEqual:   equal,
		})
	}
	return rows, nil
}
