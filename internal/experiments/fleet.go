package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/serve"
)

// fleetClients is the closed-loop client count of every serving
// experiment: enough to keep two streams on two devices busy with a
// queue behind them.
const fleetClients = 6

// fleetResult is one job of a fleet run. Exactly one of Report and Err is
// set; Job is nil when the job never reached the pool (Build or Submit
// failed).
type fleetResult struct {
	Workload, Round int
	Job             *serve.Job
	Report          *exec.Report
	Err             error
}

// runFleet drives rounds × workloads through the pool with a fleet of
// closed-loop clients and returns one result per job, in job order (round
// major, workload minor). The jobs are dealt round-robin to the clients;
// each client submits its next job only after the previous one finished —
// the load pattern of the paper's batch-recognition drivers, not an
// open-loop flood. A job that fails is a result with Err set; its client
// goes on to its next job.
func runFleet(pool *serve.Pool, workloads []TemplateSpec, rounds, clients int) []fleetResult {
	results := make([]fleetResult, rounds*len(workloads))
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Clients write disjoint elements of results, so the slice
			// needs no lock.
			for i := c; i < len(results); i += clients {
				r := &results[i]
				r.Round, r.Workload = i/len(workloads), i%len(workloads)
				w := workloads[r.Workload]
				g, err := w.Build()
				if err == nil {
					r.Job, err = pool.Submit(ctx, serve.Request{Graph: g})
				}
				if err == nil {
					r.Report, err = r.Job.Wait(ctx)
				}
				if err != nil {
					r.Err = fmt.Errorf("%s %s: %w", w.Name, w.Input, err)
				}
			}
		}(c)
	}
	wg.Wait()
	return results
}

// ref is the fault-free reference for one (workload, device) pair: the
// stats of the workload simulated alone on the device.
type ref struct{ stats gpu.Stats }

// matches reports whether an execution charged exactly what the
// reference did: the same launches, transfer calls, floats moved and
// modeled time.
func (r ref) matches(s gpu.Stats) bool {
	return s.KernelLaunches == r.stats.KernelLaunches &&
		s.H2DCalls == r.stats.H2DCalls &&
		s.D2HCalls == r.stats.D2HCalls &&
		s.TotalFloats() == r.stats.TotalFloats() &&
		s.TotalTime() == r.stats.TotalTime()
}

// refKey names a reference: the workload's index and the device's name.
type refKey struct {
	workload int
	device   string
}

// faultFreeRefs simulates every workload alone on every device. Placement
// is load-dependent, so a fleet's jobs are compared against the reference
// for wherever each one landed. Infeasible pairs (template too big for
// the card even split) have no entry — the pool never places such a job
// there either.
func faultFreeRefs(specs []gpu.Spec, workloads []TemplateSpec) (map[refKey]ref, error) {
	refs := make(map[refKey]ref)
	for _, spec := range specs {
		svc := core.NewService(core.WithDevice(spec))
		for wi, w := range workloads {
			g, err := w.Build()
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", w.Name, w.Input, err)
			}
			rep, err := svc.CompileAndSimulate(context.Background(), g)
			if errors.Is(err, core.ErrInfeasible) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("reference %s %s on %s: %w", w.Name, w.Input, spec.Name, err)
			}
			refs[refKey{wi, spec.Name}] = ref{rep.Stats}
		}
	}
	return refs, nil
}

// ledgerDrained checks a closed pool's snapshot: with every worker gone
// all batch reserves have been released, so each device's committed bytes
// must equal exactly its surviving pinned-set size (zero without
// residency, and on a quarantined device — its pins were written off
// wholesale).
func ledgerDrained(st serve.Stats) error {
	for _, d := range st.Devices {
		if d.CommittedBytes != d.PinnedBytes {
			return fmt.Errorf("%s leaked ledger bytes after drain: committed %d != pinned %d",
				d.Name, d.CommittedBytes, d.PinnedBytes)
		}
	}
	return nil
}
