// Command served runs the serving layer as an HTTP JSON server: a pool
// of simulated devices with footprint-aware admission control and
// request coalescing, fed over POST /v1/jobs.
//
//	served -addr :8080 -devices c870,8800 -streams 2 -queue 64 -residency
//
//	curl -s localhost:8080/v1/jobs -d '{"template":"edge","h":512,"w":512,"wait":true}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -s localhost:8080/v1/jobs/job-1/trace
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/trace > pool-trace.json
//	curl -s localhost:8080/v1/debug/flightrecorder
//	curl -s localhost:8080/metrics
//
// Fault tolerance can be exercised end to end with the chaos flags: the
// command below loses the c870 on its 40th device operation, so the
// pool quarantines it, migrates its queue, and probes it back into
// rotation (watch /healthz flip degraded -> ok):
//
//	served -devices c870,8800 -chaos-lost c870:40 -probe-interval 50ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/serve"
)

var (
	addr     = flag.String("addr", ":8080", "listen address")
	devices  = flag.String("devices", "c870,8800", "comma-separated pool devices: c870, 8800, c1060, or custom:<name>:<MB>")
	streams  = flag.Int("streams", 2, "executor streams per device")
	queue    = flag.Int("queue", 64, "bounded queue depth per device")
	deadline = flag.Duration("deadline", 0, "default queue-wait deadline (0 = none)")
	cache    = flag.Int("cache", 0, "compiled-plan cache entries per device (0 = default)")
	planner  = flag.String("planner", "heuristic", "planner: heuristic, baseline, or pb-optimal")
	// -residency enables cross-job residency: read-only shareable buffers
	// (template weights) stay pinned on the device across jobs, repeat
	// submissions elide their uploads and prefer the device holding their
	// pins, and /v1/stats grows a populated "residency" section.
	residency = flag.Bool("residency", false, "pin read-only template weights on devices across jobs")

	// -gang prefers gang placement up front for templates whose working
	// set exceeds the largest pool device; without it a job gangs only
	// when no single device can host it.
	gang = flag.Bool("gang", false, "prefer cross-device gang placement for oversized templates")

	// Fault-tolerance knobs. -chaos-lost scripts a one-shot device loss
	// on a named pool device (<device>:<op> fails the op-th fallible
	// device operation and the replay budget behind it, forcing a
	// quarantine); -chaos-rate injects a transient fault rate on every
	// device. Both exist to demonstrate and smoke-test the health state
	// machine end to end over HTTP.
	chaosLost = flag.String("chaos-lost", "", "inject device loss: <device>:<op>[,<op>...] (ops index fallible device operations)")
	chaosRate = flag.Float64("chaos-rate", 0, "per-call transient fault probability on transfers and launches (all devices)")
	chaosSeed = flag.Int64("chaos-seed", 2009, "fault injection seed")
	probeIvl  = flag.Duration("probe-interval", 0, "quarantine re-probe interval (0 = default 100ms)")

	// Observability outputs. The pool always serves /v1/jobs/{id}/trace,
	// /v1/trace, and /v1/debug/flightrecorder while running; these flags
	// additionally persist the evidence: -trace-out writes the pool-wide
	// Chrome trace on shutdown, -flight-dump makes quarantines and
	// breaker trips auto-dump the flight ring to numbered JSON snapshots.
	traceOut  = flag.String("trace-out", "", "write the pool Chrome trace to this file on shutdown")
	flightOut = flag.String("flight-dump", "", "auto-dump flight-recorder snapshots to this file on quarantine or breaker trip")
)

// parseChaosLost turns "<device>:<op>[,<op>...]" into a seeded injector
// scripting a device-lost window wide enough to outlast the executor's
// replay budget, keyed by the target device name.
func parseChaosLost(s string, seed int64) (string, *gpu.Injector, error) {
	i := strings.LastIndex(s, ":")
	if i <= 0 {
		return "", nil, fmt.Errorf("chaos-lost %q: want <device>:<op>[,<op>...]", s)
	}
	name := s[:i]
	inj := gpu.NewInjector(seed)
	for _, tok := range strings.Split(s[i+1:], ",") {
		var op int
		if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &op); err != nil || op < 0 {
			return "", nil, fmt.Errorf("chaos-lost %q: bad op %q", s, tok)
		}
		// A window of ops, not a single one: device loss is retried via
		// checkpoint replay, and each replay burns the next op.
		for w := 0; w < 8; w++ {
			inj.FailAt(gpu.FaultDeviceLost, op+w, gpu.Persistent)
		}
	}
	return name, inj, nil
}

func parseDevices(s string) ([]gpu.Spec, error) {
	var specs []gpu.Spec
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "c870":
			specs = append(specs, gpu.TeslaC870())
		case tok == "8800":
			specs = append(specs, gpu.GeForce8800GTX())
		case tok == "c1060":
			specs = append(specs, gpu.TeslaC1060())
		case strings.HasPrefix(tok, "custom:"):
			var name string
			var mb int64
			if _, err := fmt.Sscanf(tok, "custom:%s", &name); err != nil || !strings.Contains(name, ":") {
				return nil, fmt.Errorf("custom device %q: want custom:<name>:<MB>", tok)
			}
			parts := strings.SplitN(name, ":", 2)
			if _, err := fmt.Sscanf(parts[1], "%d", &mb); err != nil || mb <= 0 {
				return nil, fmt.Errorf("custom device %q: bad size %q", tok, parts[1])
			}
			specs = append(specs, gpu.Custom(parts[0], mb<<20))
		default:
			return nil, fmt.Errorf("unknown device %q (c870, 8800, c1060, custom:<name>:<MB>)", tok)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no devices")
	}
	return specs, nil
}

func main() {
	flag.Parse()
	specs, err := parseDevices(*devices)
	if err != nil {
		log.Fatal(err)
	}
	var pl core.Planner
	switch *planner {
	case "heuristic":
		pl = core.HeuristicPlanner
	case "baseline":
		pl = core.BaselinePlanner
	case "pb-optimal":
		pl = core.PBOptimalPlanner
	default:
		log.Fatalf("unknown planner %q", *planner)
	}

	opts := []serve.PoolOption{
		serve.WithDevices(specs...),
		serve.WithStreams(*streams),
		serve.WithQueueDepth(*queue),
		serve.WithDefaultDeadline(*deadline),
		serve.WithObserver(obs.New()),
		serve.WithServiceOptions(core.WithPlanner(pl), core.WithCache(*cache)),
	}
	if *residency {
		opts = append(opts, serve.WithResidency())
	}
	if *gang {
		opts = append(opts, serve.WithGangPlacement())
	}
	if *probeIvl > 0 {
		opts = append(opts, serve.WithHealthPolicy(serve.HealthPolicy{ProbeInterval: *probeIvl}))
	}
	if *flightOut != "" {
		opts = append(opts, serve.WithFlightDump(*flightOut))
	}
	if *chaosLost != "" {
		name, inj, err := parseChaosLost(*chaosLost, *chaosSeed)
		if err != nil {
			log.Fatal(err)
		}
		// Accept either the full spec name or the same short alias
		// -devices takes ("c870" for "Tesla C870", and so on).
		if alias, err := parseDevices(name); err == nil && len(alias) == 1 {
			name = alias[0].Name
		}
		found := false
		for _, s := range specs {
			found = found || s.Name == name
		}
		if !found {
			log.Fatalf("chaos-lost: device %q not in pool", name)
		}
		opts = append(opts, serve.WithDeviceFaults(name, inj))
		log.Printf("chaos: scripted device loss on %s", name)
	}
	if *chaosRate > 0 {
		for i, s := range specs {
			inj := gpu.NewInjector(*chaosSeed + int64(i))
			inj.SetRate(gpu.FaultH2D, *chaosRate, gpu.Transient)
			inj.SetRate(gpu.FaultLaunch, *chaosRate/2, gpu.Transient)
			opts = append(opts, serve.WithDeviceFaults(s.Name, inj))
		}
		log.Printf("chaos: transient fault rate %g on all devices", *chaosRate)
	}
	pool := serve.NewPool(opts...)

	srv := serve.NewServer(*addr, pool)
	go func() {
		for _, s := range specs {
			log.Printf("device %s: %d MB", s.Name, s.MemoryBytes>>20)
		}
		log.Printf("serving on %s (%d streams/device, queue %d)", *addr, *streams, *queue)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down: draining queued jobs")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	pool.Close()
	if *traceOut != "" {
		fh, err := os.Create(*traceOut)
		if err != nil {
			log.Printf("trace-out: %v", err)
			return
		}
		if err := pool.WriteTrace(fh); err != nil {
			log.Printf("trace-out: %v", err)
		} else {
			log.Printf("wrote pool Chrome trace to %s", *traceOut)
		}
		fh.Close()
	}
}
