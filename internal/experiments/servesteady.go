package experiments

import (
	"fmt"
	"sort"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/serve"
)

// SteadyFleet is one steady-state serving fleet's aggregate: the same
// closed-loop workload driven through a pool with cross-job residency
// either on (pinned) or off (unpinned). Latencies are modeled
// (simulated-clock) seconds — the machine-independent number — over the
// measured rounds only; the warmup round that populates the pinned sets
// is excluded from both fleets alike.
type SteadyFleet struct {
	Residency bool
	Jobs      int // measured jobs (warmup excluded)

	ModeledP50Sec      float64
	ModeledP99Sec      float64
	ModeledMakespanSec float64

	// H2DBytesPerJob is the mean device-transfer volume per measured
	// job: charged bytes for the unpinned fleet, actual (elision-aware)
	// bytes for the pinned one.
	H2DBytesPerJob float64

	PinnedBytes       int64
	PinHits           int64
	PinEvictions      int64
	RollingOverlapSec float64
	Failed            int64
}

// SteadyResult is the steady-state serving experiment: the paper's eight
// workloads cycled through a pool of two identical C1060s by a closed-loop client
// fleet, pinned (residency + rolling admission) versus unpinned, same
// job schedule. The headline numbers are the per-job H2D reduction and
// the modeled p99 improvement once weights stay device-resident.
type SteadyResult struct {
	Clients      int
	WarmupRounds int
	Streams      int

	Pinned   SteadyFleet
	Unpinned SteadyFleet

	// H2DReduction is 1 - pinned/unpinned mean H2D bytes per job;
	// P99Improvement is 1 - pinned/unpinned modeled p99.
	H2DReduction   float64
	P99Improvement float64
	// LedgerClean reports that after both pools drained and closed,
	// every device's committed bytes returned exactly to its pinned-set
	// size (zero for the unpinned fleet).
	LedgerClean bool
}

// steadySpecs is the steady-state pool: two identical Tesla C1060s.
// Identical twins are deliberate — with equal memory every workload
// compiles to the same plan on either device, so the charged H2D volume
// per job is placement-independent and the pinned-vs-unpinned delta
// isolates the residency effect (a mixed fleet would bill the smaller
// card's thrashing to residency). The 4 GB part rather than the paper's
// C870 is equally deliberate: steady-state pinning needs room for a
// workload's shareable weights *and* its transient reserve at once, and
// the biggest paper inputs leave a 1.5 GB card evicting its own pins
// every round. The same next-generation part already hosts the
// transfer/compute overlap extension.
func steadySpecs() []gpu.Spec {
	a, b := gpu.TeslaC1060(), gpu.TeslaC1060()
	a.Name, b.Name = "Tesla C1060 #0", "Tesla C1060 #1"
	return []gpu.Spec{a, b}
}

// steadyWarmup is the number of leading rounds that populate the pinned
// sets and are excluded from both fleets' aggregates; steadyStreams is
// the executor stream count per device.
const steadyWarmup, steadyStreams = 1, 2

// runSteadyFleet drives warmup+rounds cycles of the eight paper
// workloads through one pool and aggregates the measured rounds.
func runSteadyFleet(residency bool, rounds int) (*SteadyFleet, error) {
	workloads := PaperWorkloads()
	total := (steadyWarmup + rounds) * len(workloads)

	opts := []serve.PoolOption{
		serve.WithDevices(steadySpecs()...),
		serve.WithStreams(steadyStreams),
		serve.WithQueueDepth(2 * total),
		serve.WithObserver(obs.New()),
	}
	if residency {
		opts = append(opts, serve.WithResidency())
	}
	pool := serve.NewPool(opts...)
	defer pool.Close()

	fleet := &SteadyFleet{Residency: residency}
	var lat []float64
	var h2d int64 // actual (elision-aware) H2D floats
	for _, r := range runFleet(pool, workloads, steadyWarmup+rounds, fleetClients) {
		if r.Err != nil {
			return nil, r.Err
		}
		if r.Round < steadyWarmup {
			continue
		}
		fleet.Jobs++
		lat = append(lat, r.Report.Actual.TotalTime())
		h2d += r.Report.Actual.H2DFloats
	}
	sort.Float64s(lat)
	if len(lat) > 0 {
		fleet.ModeledP50Sec = lat[len(lat)/2]
		fleet.ModeledP99Sec = lat[(len(lat)*99)/100]
		fleet.H2DBytesPerJob = 4 * float64(h2d) / float64(len(lat))
	}

	// Close before reading stats, so the ledger has drained.
	pool.Close()
	st := pool.Stats()
	if err := ledgerDrained(st); err != nil {
		return nil, err
	}
	fleet.ModeledMakespanSec = st.ModeledMakespanSec
	fleet.PinnedBytes = st.Residency.PinnedBytes
	fleet.PinHits = st.Residency.Hits
	fleet.PinEvictions = st.Residency.Evictions
	fleet.RollingOverlapSec = st.Residency.RollingOverlapSec
	for _, d := range st.Devices {
		fleet.Failed += d.Failed
	}
	return fleet, nil
}

// ServeSteady runs the steady-state serving experiment: an identical
// closed-loop schedule of the paper's eight workloads (rounds measured
// rounds, <= 0 picks 3) through a pinned (residency on) and an unpinned
// pool, warmup excluded, and verifies the headline claims — every job
// completes, per-job H2D volume drops by at least 40%, and the modeled
// p99 strictly improves.
func ServeSteady(rounds int) (*SteadyResult, error) {
	if rounds <= 0 {
		rounds = 3
	}
	unpinned, err := runSteadyFleet(false, rounds)
	if err != nil {
		return nil, fmt.Errorf("unpinned fleet: %w", err)
	}
	pinned, err := runSteadyFleet(true, rounds)
	if err != nil {
		return nil, fmt.Errorf("pinned fleet: %w", err)
	}

	res := &SteadyResult{
		Clients: fleetClients, WarmupRounds: steadyWarmup, Streams: steadyStreams,
		Pinned: *pinned, Unpinned: *unpinned,
		LedgerClean: true, // runSteadyFleet fails otherwise
	}
	if unpinned.H2DBytesPerJob > 0 {
		res.H2DReduction = 1 - pinned.H2DBytesPerJob/unpinned.H2DBytesPerJob
	}
	if unpinned.ModeledP99Sec > 0 {
		res.P99Improvement = 1 - pinned.ModeledP99Sec/unpinned.ModeledP99Sec
	}

	if pinned.Failed != 0 || unpinned.Failed != 0 {
		return nil, fmt.Errorf("jobs failed: pinned %d, unpinned %d", pinned.Failed, unpinned.Failed)
	}
	if res.H2DReduction < 0.40 {
		return nil, fmt.Errorf("steady-state H2D reduction %.1f%% below the 40%% bar "+
			"(pinned %.0f B/job, unpinned %.0f B/job)",
			100*res.H2DReduction, pinned.H2DBytesPerJob, unpinned.H2DBytesPerJob)
	}
	if pinned.ModeledP99Sec >= unpinned.ModeledP99Sec {
		return nil, fmt.Errorf("pinned modeled p99 %.4fs did not improve on unpinned %.4fs",
			pinned.ModeledP99Sec, unpinned.ModeledP99Sec)
	}
	return res, nil
}
