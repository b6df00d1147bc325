// The cross-device partition experiment: the paper's headline 17 GB CNN
// (§1, §4) spread across the C870 + 8800 GTX pool versus paging the
// whole job through either single card. The partitioned path is the
// tentpole acceptance run — zero OOM on member-sized devices, charged
// stats deterministic across repeated rounds, and outputs bit-identical
// to a sequential single-device execution of the same split graph
// (verified at a materialized scale; the 17 GB footprint itself runs in
// accounting mode, like every paper-scale experiment).
package experiments

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/workload"
)

// PartitionBaseline is one single-device paged run of the full template:
// the whole working set staged through one card's memory by the ordinary
// split + heuristic-schedule pipeline.
type PartitionBaseline struct {
	Device      string
	MemoryBytes int64
	ModeledSec  float64
	// Thrashing marks transfer volume exceeding the modeled host memory —
	// the paper's starred Table 2 entries.
	Thrashing bool
}

// PartitionPart is one member's share of the partitioned execution.
type PartitionPart struct {
	Device      string
	MemoryBytes int64
	PeakBytes   int64
	Ops         int
	Steps       int
	BusySec     float64
}

// PartitionResult is the partition experiment's result: per-device paged
// baselines, the partitioned run across the same pool, and the
// verification verdicts the acceptance criteria name.
type PartitionResult struct {
	Template        string
	Input           string
	WorkingSetBytes int64

	Baselines []PartitionBaseline
	Parts     []PartitionPart

	// PartitionedSec is the joined modeled makespan of the executed
	// partition (concurrent parts, cross-device edges honored);
	// StaticMakespanSec is the compile-time model of the same number.
	PartitionedSec    float64
	StaticMakespanSec float64
	CutFloats         int64
	CrossEdges        int

	// Speedup is the best single-device paged baseline over the
	// partitioned makespan (> 1 means the partition wins).
	Speedup float64

	// Rounds is how many times the paper-scale accounting run repeated;
	// Deterministic that every round charged identical per-part stats.
	Rounds        int
	Deterministic bool
	// OOMFree: every round completed on member-sized devices (the
	// simulated allocator enforces capacity) with every part's planned
	// peak under its member's memory and all allocators drained.
	OOMFree bool

	// OutputsBitIdentical: at VerifyInput scale, the materialized
	// partitioned run produced outputs bitwise equal to the same split
	// graph executed sequentially on one large device.
	VerifyInput         string
	OutputsBitIdentical bool
}

// partitionPool is the paper pool the 17 GB CNN spreads across.
func partitionPool() []gpu.Spec {
	return []gpu.Spec{gpu.TeslaC870(), gpu.GeForce8800GTX()}
}

// liveRootBytes sums the distinct live root buffers — the template's
// whole working set, what a single device must page through the bus.
func liveRootBytes(g *graph.Graph) int64 {
	seen := make(map[int]bool)
	var total int64
	for _, b := range g.LiveBuffers() {
		if root := b.Root; !seen[root.ID] {
			seen[root.ID] = true
			total += root.Bytes()
		}
	}
	return total
}

// Partition runs the cross-device partition experiment at paper scale:
// the large CNN at 6400×4800 (the 17 GB working set of Table 1) paged
// through each single card versus partitioned across both, plus the
// materialized bit-identity verification at a host-sized input. rounds
// repeats the paper-scale accounting run to assert determinism
// (<= 0 picks the default of 2).
func Partition(rounds int) (*PartitionResult, error) {
	if rounds <= 0 {
		rounds = 2
	}
	return partitionExperiment(6400, 4800, 320, 240, rounds)
}

// partitionExperiment is Partition with explicit paper-scale and
// verification-scale CNN dimensions, so tests can shrink both.
func partitionExperiment(h, w, vh, vw, rounds int) (*PartitionResult, error) {
	specs := partitionPool()
	res := &PartitionResult{
		Template: "Large CNN",
		Input:    fmt.Sprintf("%dx%d", h, w),
		Rounds:   rounds,
	}

	// Single-device paged baselines: the whole template through one card.
	g, _, err := workload.Spec{Template: "cnn-large", H: h, W: w}.Build()
	if err != nil {
		return nil, err
	}
	res.WorkingSetBytes = liveRootBytes(g)
	for _, spec := range specs {
		_, rep, err := compileAndSimulate(g, spec)
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", spec.Name, err)
		}
		res.Baselines = append(res.Baselines, PartitionBaseline{
			Device:      spec.Name,
			MemoryBytes: spec.MemoryBytes,
			ModeledSec:  rep.Stats.TotalTime(),
			Thrashing:   rep.Thrashing,
		})
	}

	// Partitioned across the pool: compile once, execute rounds times in
	// accounting mode on fresh member-sized devices.
	eng := core.NewEngine(core.Config{})
	pc, err := eng.CompilePartitioned(context.Background(), g, specs)
	if err != nil {
		return nil, fmt.Errorf("partitioned compile: %w", err)
	}
	res.StaticMakespanSec = pc.Makespan
	res.CutFloats = pc.CutFloats
	res.CrossEdges = len(pc.Partition.Edges)

	res.Deterministic = true
	res.OOMFree = true
	var first *exec.PartitionReport
	for r := 0; r < rounds; r++ {
		devs := pc.NewDevices()
		pr, err := pc.RunOn(context.Background(), devs, core.RunOptions{Simulate: true})
		if err != nil {
			return nil, fmt.Errorf("partitioned round %d: %w", r, err)
		}
		for p, d := range devs {
			if used := d.Allocator().UsedBytes(); used != 0 {
				res.OOMFree = false
				return nil, fmt.Errorf("partition part %d leaked %d bytes", p, used)
			}
		}
		if first == nil {
			first = pr
			continue
		}
		for p := range pr.Parts {
			if !reflect.DeepEqual(first.Parts[p].Stats, pr.Parts[p].Stats) {
				res.Deterministic = false
			}
		}
	}
	res.PartitionedSec = first.Makespan
	for p, part := range pc.Partition.Parts {
		peak := part.Plan.PeakFloats * 4
		if peak > part.Spec.MemoryBytes {
			res.OOMFree = false
		}
		res.Parts = append(res.Parts, PartitionPart{
			Device:      part.Spec.Name,
			MemoryBytes: part.Spec.MemoryBytes,
			PeakBytes:   peak,
			Ops:         len(part.Plan.Order),
			Steps:       len(part.Plan.Steps),
			BusySec:     first.Parts[p].Stats.TotalTime(),
		})
	}
	best := res.Baselines[0].ModeledSec
	for _, b := range res.Baselines[1:] {
		if b.ModeledSec < best {
			best = b.ModeledSec
		}
	}
	if res.PartitionedSec > 0 {
		res.Speedup = best / res.PartitionedSec
	}

	// Bit-identity verification at a materialized scale: the partitioned
	// run against the same split graph executed sequentially on one
	// device large enough to hold it.
	res.VerifyInput = fmt.Sprintf("%dx%d", vh, vw)
	vg, in, err := workload.Spec{Template: "cnn-large", H: vh, W: vw, Seed: 7, Materialized: true}.Build()
	if err != nil {
		return nil, err
	}
	vpc, err := core.NewEngine(core.Config{}).CompilePartitioned(context.Background(), vg, specs)
	if err != nil {
		return nil, fmt.Errorf("verify compile: %w", err)
	}
	refc, err := compile(vpc.Graph, gpu.Custom("ref", 1<<32))
	if err != nil {
		return nil, fmt.Errorf("verify reference plan: %w", err)
	}
	ref, err := refc.Run(context.Background(), core.RunOptions{Inputs: in})
	if err != nil {
		return nil, fmt.Errorf("verify reference run: %w", err)
	}
	vpr, err := vpc.Run(context.Background(), core.RunOptions{Inputs: in})
	if err != nil {
		return nil, fmt.Errorf("verify partitioned run: %w", err)
	}
	res.OutputsBitIdentical = len(vpr.Outputs) == len(ref.Outputs)
	for id, want := range ref.Outputs {
		if !vpr.Outputs[id].Equal(want) {
			res.OutputsBitIdentical = false
		}
	}
	return res, nil
}
