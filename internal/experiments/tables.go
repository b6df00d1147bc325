package experiments

import (
	"repro/internal/gpu"
	"repro/internal/sched"
)

// Table1Row is one row of Table 1: the reduction in data transfer between
// host and GPU. Volumes are float counts; -1 marks the paper's "N/A"
// (infeasible) entries.
type Table1Row struct {
	Template  string
	Input     string
	TotalTemp int64 // total temporary data needed (floats)
	Lower     int64 // I/O transfers only (lower bound)
	Baseline  int64 // baseline implementation, -1 if infeasible
	OptC870   int64 // optimized for Tesla C870
	Opt8800   int64 // optimized for GeForce 8800 GTX
}

// Table1 regenerates Table 1 for the given workloads.
func Table1(specs []TemplateSpec) ([]Table1Row, error) {
	c870 := gpu.TeslaC870()
	g8800 := gpu.GeForce8800GTX()
	var rows []Table1Row
	for _, ts := range specs {
		g, err := ts.Build()
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Template:  ts.Name,
			Input:     ts.Input,
			TotalTemp: g.Stats().TotalFloats,
			Lower:     sched.LowerBound(g),
		}
		// Baseline is evaluated against the larger device (the paper's
		// N/A appears when an operator cannot fit even there).
		if plan, _, ok, err := simulateBaseline(g, c870); err != nil {
			return nil, err
		} else if ok {
			row.Baseline = plan.TotalTransferFloats()
		} else {
			row.Baseline = -1
		}
		for i, spec := range []gpu.Spec{c870, g8800} {
			plan, _, err := compileAndSimulate(g, spec)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				row.OptC870 = plan.TotalTransferFloats()
			} else {
				row.Opt8800 = plan.TotalTransferFloats()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2Row is one row of Table 2: execution times in (simulated) seconds;
// -1 marks infeasible entries.
type Table2Row struct {
	Template      string
	Input         string
	BaselineC870  float64
	OptimizedC870 float64
	Baseline8800  float64
	Optimized8800 float64
	SpeedupC870   float64 // baseline/optimized, 0 when baseline infeasible
	Speedup8800   float64
	// Thrashing8800 marks entries whose transfer volume exceeds the 8 GB
	// host memory (the paper's "inconsistent results" footnote applies to
	// the GeForce system at the largest CNN size).
	Thrashing8800 bool
}

// Table2 regenerates Table 2 for the given workloads on the simulated
// device timing model.
func Table2(specs []TemplateSpec) ([]Table2Row, error) {
	devices := []gpu.Spec{gpu.TeslaC870(), gpu.GeForce8800GTX()}
	var rows []Table2Row
	for _, ts := range specs {
		g, err := ts.Build()
		if err != nil {
			return nil, err
		}
		row := Table2Row{Template: ts.Name, Input: ts.Input,
			BaselineC870: -1, OptimizedC870: -1, Baseline8800: -1, Optimized8800: -1}
		for di, spec := range devices {
			var baseT float64 = -1
			if _, stats, ok, err := simulateBaseline(g, spec); err != nil {
				return nil, err
			} else if ok {
				baseT = stats.TotalTime()
			}
			_, rep, err := compileAndSimulate(g, spec)
			if err != nil {
				return nil, err
			}
			optT := rep.Stats.TotalTime()
			if di == 1 && rep.Thrashing {
				row.Thrashing8800 = true
			}
			if di == 0 {
				row.BaselineC870, row.OptimizedC870 = baseT, optT
				if baseT > 0 {
					row.SpeedupC870 = baseT / optT
				}
			} else {
				row.Baseline8800, row.Optimized8800 = baseT, optT
				if baseT > 0 {
					row.Speedup8800 = baseT / optT
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
