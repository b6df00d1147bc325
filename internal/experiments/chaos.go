package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
)

// ChaosRow is one point of the fault-injection sweep: edge detection
// replayed under the resilient executor with a given per-call transient
// fault probability on every transfer and kernel launch. Times are
// simulated seconds.
type ChaosRow struct {
	// Rate is the per-call transient fault probability.
	Rate float64
	// Calls is the number of fallible device calls the run issued.
	Calls int
	// Retries and BackoffSeconds summarize the recovery work performed.
	Retries        int
	BackoffSeconds float64
	// CleanTime is the fault-free makespan, FaultyTime the makespan under
	// injection (including recovery), OverheadPct the relative slowdown.
	CleanTime   float64
	FaultyTime  float64
	OverheadPct float64
}

// Chaos sweeps transient fault rates over the edge-detection template in
// accounting mode and measures the resilient executor's recovery overhead
// against the fault-free run. Rates run concurrently; each uses its own
// compiled graph and a deterministic injector seeded from seed and the
// rate's index, so results are reproducible.
func Chaos(dim int, rates []float64, spec gpu.Spec, seed int64) ([]ChaosRow, error) {
	clean, err := chaosRun(dim, spec, nil)
	if err != nil {
		return nil, err
	}
	cleanTime := clean.Stats.TotalTime()

	rows := make([]ChaosRow, len(rates))
	errs := make([]error, len(rates))
	var wg sync.WaitGroup
	for i, rate := range rates {
		wg.Add(1)
		go func(i int, rate float64) {
			defer wg.Done()
			inj := gpu.NewInjector(seed+int64(i)).
				SetRate(gpu.FaultH2D, rate, gpu.Transient).
				SetRate(gpu.FaultD2H, rate, gpu.Transient).
				SetRate(gpu.FaultLaunch, rate, gpu.Transient)
			rep, err := chaosRun(dim, spec, inj)
			if err != nil {
				errs[i] = fmt.Errorf("rate %g: %w", rate, err)
				return
			}
			row := ChaosRow{
				Rate:       rate,
				Calls:      inj.Ops(),
				CleanTime:  cleanTime,
				FaultyTime: rep.Stats.TotalTime(),
			}
			if rec := rep.Recovery; rec != nil {
				row.Retries = rec.Retries
				row.BackoffSeconds = rec.BackoffSeconds
			}
			if cleanTime > 0 {
				row.OverheadPct = (row.FaultyTime/cleanTime - 1) * 100
			}
			rows[i] = row
		}(i, rate)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// chaosRun compiles the edge template for the device and replays it under
// the resilient executor in accounting mode with the given injector (nil
// for a clean run).
func chaosRun(dim int, spec gpu.Spec, inj *gpu.Injector) (*exec.Report, error) {
	g, _, err := paperEdge(dim).Build()
	if err != nil {
		return nil, err
	}
	c, err := compile(g, spec, core.WithFaults(inj))
	if err != nil {
		return nil, err
	}
	return c.Run(context.Background(), core.RunOptions{Simulate: true, Resilient: true})
}
