package experiments

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ServeRow is one workload's aggregate across every pool round of the
// serving extension experiment.
type ServeRow struct {
	Template string `json:"template"`
	Input    string `json:"input"`
	Jobs     int    `json:"jobs"`
	// ModeledSeconds is the per-execution simulated time on the device
	// each job landed on (mean across jobs).
	ModeledSeconds float64 `json:"modeled_seconds"`
}

// ServeDevice is one pool device's aggregate.
type ServeDevice struct {
	Name           string  `json:"name"`
	Completed      int64   `json:"completed"`
	ModeledBusySec float64 `json:"modeled_busy_seconds"`
	Utilization    float64 `json:"utilization"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheHits      int64   `json:"cache_hits"`
}

// ServeResult is the serving extension experiment: a closed-loop load
// generator drives the paper's eight workloads (accounting mode) through
// a two-device pool, against a serial single-device baseline of the same
// job sequence. Every number is modeled (simulated-clock, machine-
// independent); measured serving latency is the repo benchmark's
// serve_mixed workload (bench/README.md).
type ServeResult struct {
	Rows    []ServeRow    `json:"rows"`
	Devices []ServeDevice `json:"devices"`

	Clients int `json:"clients"`
	Rounds  int `json:"rounds"`
	Streams int `json:"streams"`
	Jobs    int `json:"jobs"`

	// The serial baseline executes every job back to back on one Tesla
	// C870; the pool's makespan is its largest per-stream simulated clock.
	SerialModeledSec  float64 `json:"serial_modeled_seconds"`
	PoolModeledSec    float64 `json:"pool_modeled_seconds"`
	ModeledSpeedup    float64 `json:"modeled_speedup"`
	ModeledThroughput float64 `json:"modeled_jobs_per_minute"`

	Coalesced int64 `json:"coalesced_batches"`
	OOMFaults int64 `json:"oom_faults"`
	Rejected  int64 `json:"rejected"`
}

// Serve runs the serving experiment: 3 rounds of the 8 paper workloads
// submitted by the closed-loop fleet to a C870+8800 pool (2 executor
// streams per device), versus the same job list executed serially on a
// single C870. Workloads run in accounting mode, so the paper-scale
// footprints are exercised byte-exactly without materializing gigabytes.
// It returns an error if any job fails or any report's stats differ from
// the fault-free reference for the device the job landed on: batching,
// coalescing and the observer must not perturb modeled results.
func Serve() (*ServeResult, error) {
	const rounds, streams = 3, 2
	workloads := PaperWorkloads()
	specs := []gpu.Spec{gpu.TeslaC870(), gpu.GeForce8800GTX()}
	refs, err := faultFreeRefs(specs, workloads)
	if err != nil {
		return nil, err
	}
	res := &ServeResult{
		Clients: fleetClients, Rounds: rounds, Streams: streams,
		Jobs: rounds * len(workloads),
	}

	// Serial baseline: one C870, one stream, every job back to back. The
	// simulation is deterministic, so its modeled time is the C870
	// references summed in job order.
	c870 := specs[0].Name
	for r := 0; r < rounds; r++ {
		for wi := range workloads {
			res.SerialModeledSec += refs[refKey{wi, c870}].stats.TotalTime()
		}
	}

	// Pool: mixed capacities, bounded queues, coalescing on.
	o := obs.New()
	pool := serve.NewPool(
		serve.WithDevices(specs...),
		serve.WithStreams(streams),
		serve.WithQueueDepth(2*res.Jobs),
		serve.WithObserver(o),
	)
	defer pool.Close()

	res.Rows = make([]ServeRow, len(workloads))
	for wi, w := range workloads {
		res.Rows[wi] = ServeRow{Template: w.Name, Input: w.Input}
	}
	for _, r := range runFleet(pool, workloads, rounds, fleetClients) {
		if r.Err != nil {
			return nil, fmt.Errorf("pool %w", r.Err)
		}
		row := &res.Rows[r.Workload]
		device := r.Job.Status().Device
		if want, ok := refs[refKey{r.Workload, device}]; !ok || !want.matches(r.Report.Stats) {
			return nil, fmt.Errorf("pool %s %s on %s diverged from the fault-free reference",
				row.Template, row.Input, device)
		}
		row.Jobs++
		row.ModeledSeconds += r.Report.Stats.TotalTime()
	}
	for wi := range res.Rows {
		res.Rows[wi].ModeledSeconds /= float64(res.Rows[wi].Jobs)
	}

	st := pool.Stats()
	res.PoolModeledSec = st.ModeledMakespanSec
	if res.PoolModeledSec > 0 {
		res.ModeledSpeedup = res.SerialModeledSec / res.PoolModeledSec
		res.ModeledThroughput = float64(res.Jobs) / res.PoolModeledSec * 60
	}
	for _, d := range st.Devices {
		res.Devices = append(res.Devices, ServeDevice{
			Name:           d.Name,
			Completed:      d.Completed,
			ModeledBusySec: d.ModeledBusySec,
			Utilization:    d.Utilization,
			CacheMisses:    d.CacheMisses,
			CacheHits:      d.CacheHits,
		})
		res.OOMFaults += d.Failed
	}
	res.Coalesced = o.M().Counter("serve.coalesced").Value()
	res.Rejected = o.M().Counter("serve.rejected", "reason", "queue_full").Value() +
		o.M().Counter("serve.rejected", "reason", "infeasible").Value()
	return res, nil
}
