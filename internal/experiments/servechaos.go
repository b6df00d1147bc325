package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The serve chaos harness: the eight paper workloads replayed through
// the fault-tolerant pool under seeded fault schedules, asserting the
// pool's invariants instead of just measuring it. Three scenarios:
//
//   - single-device-lost: one device dies permanently on first touch;
//     every job must still complete on the survivor (quarantine + queue
//     drain + migration), and the dead device must end quarantined.
//   - correlated-transients: both devices suffer a low per-call
//     transient fault rate; the resilient executor must absorb every
//     fault in place with zero migrations needed and bounded modeled-
//     time inflation.
//   - flapping-device: one device flips between lost and fine (scripted
//     op-index windows); the pool must quarantine it, probe it back into
//     rotation, and lose nothing across the flaps.
//
// Invariants checked in every scenario: zero lost jobs (a submission
// either completes or the harness fails), clean executions are
// stat-identical to a fault-free reference run on the same device, and
// modeled-time inflation from recovery stays bounded.

// ServeChaosDevice is one device's post-scenario accounting.
type ServeChaosDevice struct {
	Name        string `json:"name"`
	Health      string `json:"health"`
	Completed   int64  `json:"completed"`
	Failed      int64  `json:"failed"`
	MigratedOut int64  `json:"migrated_out"`
	MigratedIn  int64  `json:"migrated_in"`
	Quarantines int64  `json:"quarantines"`
	Probes      int64  `json:"probes"`
	Recoveries  int64  `json:"recoveries"`
	Faults      int    `json:"faults_injected"`
}

// ServeChaosScenario is one fault schedule's outcome.
type ServeChaosScenario struct {
	Name        string `json:"name"`
	Description string `json:"description"`

	Jobs      int `json:"jobs"`
	Lost      int `json:"lost"`      // invariant: 0
	Completed int `json:"completed"` // invariant: == Jobs
	// Clean counts jobs whose final execution needed no recovery;
	// StatIdentical counts how many of those matched the fault-free
	// reference exactly (invariant: all with a reference available).
	Clean         int `json:"clean"`
	StatIdentical int `json:"stat_identical"`
	Recovered     int `json:"recovered"` // completed only through recovery
	Migrated      int `json:"migrated"`  // re-placed onto another device

	// MaxInflation is the worst modeled-time ratio versus the fault-free
	// reference on the device each job finished on (1.0 = no overhead).
	MaxInflation float64 `json:"max_inflation"`
	// P99InflationPct is the 99th-percentile modeled-time inflation.
	P99InflationPct float64 `json:"p99_inflation_pct"`

	BreakerOpens int64              `json:"breaker_opens"`
	Devices      []ServeChaosDevice `json:"devices"`
	// PinnedBytes is the residency bytes surviving the scenario across
	// devices; the per-device ledger is asserted to have drained back to
	// exactly this (committed == pinned, zero on quarantined devices).
	PinnedBytes int64 `json:"pinned_bytes"`
}

// ServeChaosResult is the whole harness run.
type ServeChaosResult struct {
	Seed      int64                `json:"seed"`
	Rounds    int                  `json:"rounds"`
	Clients   int                  `json:"clients"`
	Scenarios []ServeChaosScenario `json:"scenarios"`
}

// maxChaosInflation bounds the modeled-time ratio of a recovered
// execution versus its fault-free reference: retries, checkpoint
// replays, and backoff may stretch a run, but never past this factor.
const maxChaosInflation = 8.0

type chaosScenarioSpec struct {
	name, desc string
	// faults builds the per-device injectors (keyed by device name).
	faults func(seed int64) map[string]*gpu.Injector
	// policy overrides the pool health policy (zero fields = defaults).
	policy serve.HealthPolicy
	// wantQuarantined names a device that must end the scenario
	// quarantined ("" = none may).
	wantQuarantined string
	// wantRecovered names a device that must have been probed back into
	// rotation at least once.
	wantRecovered string
}

// ServeChaos runs the chaos harness: rounds×8 paper workloads per
// scenario (rounds <= 0 picks 2), submitted by the closed-loop fleet to a
// Tesla C870 + GeForce 8800 GTX pool with scripted per-device fault
// injectors. It returns an error (rather than a result) the moment any
// invariant breaks — a lost job, a clean execution whose stats drifted,
// unbounded inflation, or a device that failed to quarantine or recover
// on cue. Each scenario runs under its own observer; when traceOut is
// non-nil the scenarios' pool tracers (worker, queue, and probe lanes
// plus the simulated device timelines) are merged into one Chrome trace
// and written to it.
func ServeChaos(seed int64, rounds int, traceOut io.Writer) (*ServeChaosResult, error) {
	if rounds <= 0 {
		rounds = 2
	}
	workloads := PaperWorkloads()
	specs := []gpu.Spec{gpu.TeslaC870(), gpu.GeForce8800GTX()}
	refs, err := faultFreeRefs(specs, workloads)
	if err != nil {
		return nil, err
	}

	// The flapper and the permanently-lost device are the smaller
	// GeForce 8800 GTX, so migrated work always fits the survivor.
	const flapper = "GeForce 8800 GTX"
	scenarios := []chaosScenarioSpec{
		{
			name: "single-device-lost",
			desc: "8800 GTX lost permanently on first touch; every job completes on the surviving C870",
			faults: func(seed int64) map[string]*gpu.Injector {
				return map[string]*gpu.Injector{
					flapper: gpu.NewInjector(seed).SetRate(gpu.FaultDeviceLost, 1.0, gpu.Persistent),
				}
			},
			wantQuarantined: flapper,
		},
		{
			name: "correlated-transients",
			desc: "both devices suffer low-rate transient transfer/launch faults; all absorbed in place",
			faults: func(seed int64) map[string]*gpu.Injector {
				injs := make(map[string]*gpu.Injector)
				for i, spec := range specs {
					injs[spec.Name] = gpu.NewInjector(seed+int64(i)).
						SetRate(gpu.FaultH2D, 0.01, gpu.Transient).
						SetRate(gpu.FaultLaunch, 0.005, gpu.Transient)
				}
				return injs
			},
			// Paper-scale jobs issue thousands of fallible ops, so at
			// these rates nearly every execution needs some recovery; a
			// dirty-streak quarantine would be the wrong response to a
			// fleet-wide transient storm. Keep both devices in rotation
			// and let the resilient executor absorb it.
			policy: serve.HealthPolicy{QuarantineAfter: 1 << 20},
		},
		{
			name: "flapping-device",
			desc: "8800 GTX loses two scripted op windows; quarantined, probed back into rotation, loses nothing",
			faults: func(seed int64) map[string]*gpu.Injector {
				inj := gpu.NewInjector(seed)
				// Two dense device-lost windows on the global op index.
				// Failed probes burn one op each, so the prober walks the
				// injector out of a window and the next clean probe
				// readmits the device; the second window re-quarantines it
				// if traffic reaches that deep again.
				for op := 5; op <= 13; op++ {
					inj.FailAt(gpu.FaultDeviceLost, op, gpu.Persistent)
				}
				for op := 300; op <= 308; op++ {
					inj.FailAt(gpu.FaultDeviceLost, op, gpu.Persistent)
				}
				return map[string]*gpu.Injector{flapper: inj}
			},
			wantRecovered: flapper,
		},
	}

	res := &ServeChaosResult{Seed: seed, Rounds: rounds, Clients: fleetClients}
	var master *obs.Tracer
	if traceOut != nil {
		master = obs.NewTracer()
	}
	for _, sc := range scenarios {
		o := obs.New()
		out, err := runServeChaosScenario(sc, o, seed, rounds, workloads, specs, refs)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.name, err)
		}
		res.Scenarios = append(res.Scenarios, out)
		if master != nil {
			master.Merge(o.T())
		}
	}
	if master != nil {
		if err := master.WriteChrome(traceOut); err != nil {
			return nil, fmt.Errorf("chaos trace: %w", err)
		}
	}
	return res, nil
}

func runServeChaosScenario(sc chaosScenarioSpec, o *obs.Observer, seed int64, rounds int,
	workloads []TemplateSpec, specs []gpu.Spec, refs map[refKey]ref) (ServeChaosScenario, error) {

	out := ServeChaosScenario{Name: sc.name, Description: sc.desc}
	injs := sc.faults(seed)
	policy := sc.policy
	// Fast probe cadence so recovery happens within the harness run.
	policy.ProbeInterval = 5 * time.Millisecond
	opts := []serve.PoolOption{
		serve.WithDevices(specs...),
		serve.WithStreams(2),
		serve.WithQueueDepth(4 * rounds * len(workloads)),
		serve.WithObserver(o),
		serve.WithHealthPolicy(policy),
		// Residency runs under chaos too: quarantine must clear the sick
		// device's pinned set, migration must release in-flight pin refs,
		// and the committed-bytes ledger must drain back to exactly the
		// pinned-set size — asserted below after Close. Clean executions
		// still have to match the fault-free reference bit-exactly,
		// because elision only ever touches the Actual clock domain.
		serve.WithResidency(),
	}
	for name, inj := range injs {
		opts = append(opts, serve.WithDeviceFaults(name, inj))
	}
	pool := serve.NewPool(opts...)
	defer pool.Close()

	results := runFleet(pool, workloads, rounds, fleetClients)
	out.Jobs = len(results)

	var inflations []float64
	var firstLost error
	for _, r := range results {
		if r.Err != nil {
			out.Lost++
			if firstLost == nil {
				firstLost = r.Err
			}
			continue
		}
		out.Completed++
		status := r.Job.Status()
		if status.Migrated > 0 {
			out.Migrated++
		}
		want, hasRef := refs[refKey{r.Workload, status.Device}]
		if status.Recovered {
			out.Recovered++
		} else {
			out.Clean++
			if hasRef {
				if !want.matches(r.Report.Stats) {
					return out, fmt.Errorf("clean %s %s on %s diverged from fault-free reference",
						workloads[r.Workload].Name, workloads[r.Workload].Input, status.Device)
				}
				out.StatIdentical++
			}
		}
		if hasRef && want.stats.TotalTime() > 0 {
			inflations = append(inflations, r.Report.Stats.TotalTime()/want.stats.TotalTime())
		}
	}
	if out.Lost > 0 {
		return out, fmt.Errorf("%d jobs lost (first: %v)", out.Lost, firstLost)
	}
	sort.Float64s(inflations)
	if n := len(inflations); n > 0 {
		idx := (n * 99) / 100
		if idx >= n {
			idx = n - 1
		}
		out.MaxInflation = inflations[n-1]
		out.P99InflationPct = (inflations[idx] - 1) * 100
	}
	if out.MaxInflation > maxChaosInflation {
		return out, fmt.Errorf("modeled-time inflation %.2fx exceeds bound %.1fx",
			out.MaxInflation, maxChaosInflation)
	}

	recoveries := func(dev string) int64 {
		return o.M().Counter("serve.health.transition",
			"device", dev, "from", "quarantined", "to", "recovered").Value()
	}
	// The flapper may still be on probation when the last job drains;
	// give the prober a moment to readmit it before asserting.
	if sc.wantRecovered != "" {
		deadline := time.Now().Add(5 * time.Second)
		for recoveries(sc.wantRecovered) == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Close before the final snapshot, so the ledger has drained.
	pool.Close()
	st := pool.Stats()
	if err := ledgerDrained(st); err != nil {
		return out, err
	}
	out.BreakerOpens = st.BreakerOpens
	for _, d := range st.Devices {
		recoveries := recoveries(d.Name)
		out.Devices = append(out.Devices, ServeChaosDevice{
			Name:        d.Name,
			Health:      d.Health,
			Completed:   d.Completed,
			Failed:      d.Failed,
			MigratedOut: d.MigratedOut,
			MigratedIn:  d.MigratedIn,
			Quarantines: d.Quarantines,
			Probes:      d.Probes,
			Recoveries:  recoveries,
			Faults:      len(injs[d.Name].Faults()),
		})
		if sc.wantQuarantined == d.Name && d.Health != "quarantined" {
			return out, fmt.Errorf("%s expected quarantined, is %s", d.Name, d.Health)
		}
		if sc.wantQuarantined == "" && d.Health == "quarantined" {
			return out, fmt.Errorf("%s unexpectedly quarantined", d.Name)
		}
		if sc.wantRecovered == d.Name && recoveries == 0 {
			return out, fmt.Errorf("%s was never probed back into rotation", d.Name)
		}
		out.PinnedBytes += d.PinnedBytes
	}
	return out, nil
}
