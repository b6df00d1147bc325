package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/exec"
	"repro/internal/sched"
)

// planFacts are the machine-independent facts of one plan or of one
// execution of it. bench/expected.json commits them by hand for every
// fixed template × device the benchmark uses: this round of the ROADMAP
// changes host speed and code size, never what is planned, so a plan
// that differs is a failed op.
type planFacts struct {
	Steps          int     `json:"steps,omitempty"`
	Launches       int     `json:"launches"`
	H2DCalls       int     `json:"h2d_calls"`
	D2HCalls       int     `json:"d2h_calls"`
	TransferFloats int64   `json:"transfer_floats"`
	PeakBytes      int64   `json:"peak_bytes"`
	ModeledSeconds float64 `json:"modeled_seconds,omitempty"`
}

// expectedFile is bench/expected.json.
type expectedFile struct {
	// CompileCold: Large CNN 640×480 compiled for the Tesla C870.
	CompileCold struct {
		Nodes           int `json:"nodes"`
		NodesAfterSplit int `json:"nodes_after_split"`
		planFacts
	} `json:"compile_cold"`
	// Exec: Small CNN 160×120 planned for the 512 KiB arena.
	Exec planFacts `json:"exec"`
	// Serve: one entry per fixed job class; the pool plans against one
	// capacity, so the facts hold on either device.
	Serve map[string]planFacts `json:"serve"`
	// Coverage rows of the compile trace.
	Coverage struct {
		PartitionMakespan  float64 `json:"partition_makespan_seconds"`
		PartitionCutFloats int64   `json:"partition_cut_floats"`
		Fig6OptimalUnits   int64   `json:"fig6_optimal_units"`
	} `json:"coverage"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (*expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("bench/expected.json: %w", err)
	}
	return &e, nil
}

// factsOfPlan reads what a plan states about itself; it has no modeled
// time until something executes it.
func factsOfPlan(p *sched.Plan) planFacts {
	h2d, d2h, _, launches := p.Counts()
	return planFacts{
		Steps: len(p.Steps), Launches: launches, H2DCalls: h2d, D2HCalls: d2h,
		TransferFloats: p.TotalTransferFloats(), PeakBytes: p.PeakFloats * 4,
	}
}

// factsOfReport reads what an execution charged.
func factsOfReport(r *exec.Report) planFacts {
	return planFacts{
		Launches: r.Stats.KernelLaunches, H2DCalls: r.Stats.H2DCalls, D2HCalls: r.Stats.D2HCalls,
		TransferFloats: r.Stats.TotalFloats(), PeakBytes: r.PeakResidentBytes,
		ModeledSeconds: r.Stats.TotalTime(),
	}
}

// check compares got with the committed facts, exactly. Steps and
// ModeledSeconds are compared only where the source of got knows them
// (a Report has no step count, a Plan no modeled time).
func (want planFacts) check(what string, got planFacts) error {
	if got.Steps == 0 {
		got.Steps = want.Steps
	}
	if got.ModeledSeconds == 0 {
		got.ModeledSeconds = want.ModeledSeconds
	}
	if got != want {
		return fmt.Errorf("%s: got %+v, bench/expected.json has %+v", what, got, want)
	}
	return nil
}

func (f planFacts) stats() opStats {
	return opStats{ModeledSeconds: f.ModeledSeconds, TransferFloats: f.TransferFloats, PeakBytes: f.PeakBytes}
}
