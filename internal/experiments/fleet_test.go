package experiments

import (
	"errors"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/templates"
)

// runFleet's contract on a tiny template: one result per job, in job
// order, and a job whose Build fails is exactly one Err result — the
// client that drew it goes on to its remaining jobs.
func TestRunFleetOrderAndBuildErrors(t *testing.T) {
	errBuild := errors.New("no such template")
	edge := func() (*graph.Graph, error) {
		g, _, err := templates.EdgeDetect(templates.EdgeConfig{
			ImageH: 64, ImageW: 64, KernelSize: 5, Orientations: 4})
		return g, err
	}
	workloads := []TemplateSpec{
		{Name: "edge", Input: "64x64", Build: edge},
		{Name: "broken", Input: "-", Build: func() (*graph.Graph, error) { return nil, errBuild }},
		{Name: "edge", Input: "64x64 again", Build: edge},
	}
	pool := serve.NewPool(serve.WithDevices(gpu.TeslaC870()))
	defer pool.Close()

	// Two clients over nine jobs: client 1 draws the broken workload in
	// rounds 0 and 2, client 0 in round 1, each with jobs still to go.
	const rounds, clients = 3, 2
	results := runFleet(pool, workloads, rounds, clients)
	if len(results) != rounds*len(workloads) {
		t.Fatalf("%d results for %d jobs", len(results), rounds*len(workloads))
	}
	for i, r := range results {
		if r.Round != i/len(workloads) || r.Workload != i%len(workloads) {
			t.Fatalf("result %d is (round %d, workload %d): not in job order", i, r.Round, r.Workload)
		}
		if r.Workload == 1 {
			if !errors.Is(r.Err, errBuild) || r.Job != nil || r.Report != nil {
				t.Fatalf("result %d: failing Build gave %+v", i, r)
			}
			continue
		}
		if r.Err != nil || r.Job == nil || r.Report == nil {
			t.Fatalf("result %d: job after a failed Build did not run: %+v", i, r)
		}
	}
}

// Observability off must be free and inert at fleet scale: one round of
// the eight paper workloads through an observer-less C870 + 8800 pool,
// every report stat-identical to its fault-free reference and no job
// carrying a trace. (Serve and ServeChaos assert the same identity with
// an observer attached.)
func TestBareFleetStatIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale: one round of the eight paper workloads")
	}
	workloads := PaperWorkloads()
	specs := []gpu.Spec{gpu.TeslaC870(), gpu.GeForce8800GTX()}
	refs, err := faultFreeRefs(specs, workloads)
	if err != nil {
		t.Fatal(err)
	}
	pool := serve.NewPool(
		serve.WithDevices(specs...),
		serve.WithStreams(2),
		serve.WithQueueDepth(4*len(workloads)),
	)
	defer pool.Close()
	for _, r := range runFleet(pool, workloads, 1, 4) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		w, device := workloads[r.Workload], r.Job.Status().Device
		want, ok := refs[refKey{r.Workload, device}]
		if !ok {
			t.Fatalf("%s %s landed on %s, which has no reference", w.Name, w.Input, device)
		}
		if !want.matches(r.Report.Stats) {
			t.Errorf("%s %s on %s diverged from the fault-free reference", w.Name, w.Input, device)
		}
		if r.Job.Trace() != nil {
			t.Errorf("%s %s has a trace with observability off", w.Name, w.Input)
		}
	}
	pool.Close()
	if err := ledgerDrained(pool.Stats()); err != nil {
		t.Error(err)
	}
}
