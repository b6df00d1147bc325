// Command run takes any catalog template end to end: build the operator
// graph on synthetic inputs, compile it for the chosen GPU (operator
// splitting + scheduling), execute the plan on the simulated device with
// real data (or account for it without data under -simulate), and report
// transfer/time statistics.
//
//	run -template edge -h 1024 -w 1024 -kernel 16 -orient 4 -device c870
//	run -template edge -h 4096 -w 4096 -device 8800 -planner baseline
//	run -template cnn-large -h 6400 -w 4800 -device 8800 -simulate
//	run -template cnn-small -h 640 -w 480 -verify
//	run -template pagerank -h 512 -device mem=262144 -verify
//	run -h 512 -w 512 -emit-cuda plan.cu
//	run -h 512 -w 512 -trace out.json   # open out.json in Perfetto
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workload"
)

var (
	tmpl      = flag.String("template", "edge", "catalog template:"+workload.Usage())
	height    = flag.Int("h", 1024, "input height (pagerank, bfs: vertex count)")
	width     = flag.Int("w", 1024, "input width")
	kernel    = flag.Int("kernel", 16, "edge filter size")
	orient    = flag.Int("orient", 4, "number of edge orientations (even)")
	device    = flag.String("device", "c870", "GPU: c870, 8800, c1060, or mem=<bytes>")
	planner   = flag.String("planner", "heuristic", "planner: heuristic, baseline, or pb-optimal")
	simulate  = flag.Bool("simulate", false, "accounting mode only (no data; any size)")
	emitCUDA  = flag.String("emit-cuda", "", "write generated CUDA source to this file")
	verify    = flag.Bool("verify", false, "check results against the CPU reference")
	faults    = flag.Float64("faults", 0, "per-call transient fault probability; runs the resilient executor")
	faultSeed = flag.Int64("fault-seed", 1, "fault injection seed")
	traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON of the compile + run to this file")
	metricsF  = flag.Bool("metrics", false, "print the metrics registry and residency breakdown after the run")
	repeat    = flag.Int("repeat", 1, "run the compile+run cycle N times through a shared service; the plan cache amortizes every compile after the first")
)

func main() {
	flag.Parse()
	spec, err := gpu.ParseSpec(*device)
	if err != nil {
		log.Fatal(err)
	}
	pl, err := core.ParsePlanner(*planner)
	if err != nil {
		log.Fatal(err)
	}
	ws := workload.Spec{Template: *tmpl, H: *height, W: *width, Kernel: *kernel, Orientations: *orient,
		Seed: 42, Materialized: !*simulate}

	var o *obs.Observer
	if *traceOut != "" || *metricsF {
		o = obs.New()
	}

	sp := o.T().Begin("template:build", "compile").
		SetArg("template", ws.Template).SetArgf("input", "%dx%d", ws.H, ws.W)
	g, in, err := ws.Build()
	sp.End()
	if err != nil {
		log.Fatal(err)
	}
	stats := g.Stats()
	fmt.Printf("template: %s %dx%d\n", ws.Template, ws.H, ws.W)
	fmt.Printf("graph: %d operators, %d data structures, %s total, %s largest op\n",
		stats.Operators, stats.DataStructures, report.MB(stats.TotalFloats), report.MB(stats.MaxFootprint))

	ctx := context.Background()
	opts := []core.Option{
		core.WithDevice(spec),
		core.WithPlanner(pl),
		core.WithPBMaxConflicts(2_000_000),
		core.WithObserver(o),
	}
	if *faults > 0 {
		opts = append(opts, core.WithFaults(gpu.NewInjector(*faultSeed).
			SetRate(gpu.FaultH2D, *faults, gpu.Transient).
			SetRate(gpu.FaultD2H, *faults, gpu.Transient).
			SetRate(gpu.FaultLaunch, *faults, gpu.Transient)))
	}
	svc := core.NewService(opts...)
	runOpt := core.RunOptions{Simulate: *simulate, Inputs: in, Resilient: *faults > 0}
	compiled, _, err := svc.Compile(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: %s (planner capacity %s)\n", spec, report.MB(svc.Engine().Capacity()))
	fmt.Printf("split: %d operators split into %d parts; plan peak residency %s\n",
		compiled.Split.SplitNodes, compiled.Split.PartsCreated, report.MB(compiled.Plan.PeakFloats))
	h2d, d2h := compiled.Plan.TransferFloats()
	fmt.Printf("plan: %d steps, H2D %s, D2H %s\n",
		len(compiled.Plan.Steps), report.MB(h2d), report.MB(d2h))

	if *emitCUDA != "" {
		name := strings.ReplaceAll(ws.Template, "-", "_")
		if err := os.WriteFile(*emitCUDA, []byte(compiled.GenerateCUDA(name)), 0o644); err != nil {
			log.Fatal(err)
		}
		stubs := *emitCUDA + ".kernels.c"
		if err := os.WriteFile(stubs, []byte(compiled.GenerateKernelStubs()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote CUDA source to %s (+ kernel stubs %s)\n", *emitCUDA, stubs)
	}

	rep, err := svc.Run(ctx, compiled, runOpt)
	if err != nil {
		log.Fatal(err)
	}
	if *verify && !*simulate {
		want, err := exec.RunReference(g, in)
		if err != nil {
			log.Fatal(err)
		}
		for id, w := range want {
			if !rep.Outputs[id].AlmostEqual(w, 1e-3) {
				log.Fatalf("verification FAILED: output differs by %v", rep.Outputs[id].MaxAbsDiff(w))
			}
		}
		fmt.Println("verification: outputs match the CPU reference")
	}
	fmt.Printf("executed: %d kernel launches, %d H2D + %d D2H calls\n",
		rep.Stats.KernelLaunches, rep.Stats.H2DCalls, rep.Stats.D2HCalls)
	fmt.Printf("simulated time: %s (%s transfer, %s compute; transfer share %s)\n",
		report.Seconds(rep.Stats.TotalTime()), report.Seconds(rep.Stats.TransferTime),
		report.Seconds(rep.Stats.ComputeTime), report.Percent(rep.Stats.TransferShare()))
	if rec := rep.Recovery; rec != nil {
		fmt.Println(rec)
		for _, e := range rec.Events {
			fmt.Printf("  %s\n", e)
		}
		if rep.Stats.RecoveryTime > 0 {
			fmt.Printf("recovery time: %s\n", report.Seconds(rep.Stats.RecoveryTime))
		}
	}
	if *repeat > 1 {
		// Repeated invocations rebuild the template from scratch each
		// round — the cache keys on the canonical graph fingerprint, so
		// every round after the first is a hit that skips all passes.
		start := time.Now()
		for i := 0; i < *repeat; i++ {
			gg, ini, err := ws.Build()
			if err != nil {
				log.Fatal(err)
			}
			c, _, err := svc.Compile(ctx, gg)
			if err != nil {
				log.Fatal(err)
			}
			runOpt.Inputs = ini
			if _, err := svc.Run(ctx, c, runOpt); err != nil {
				log.Fatal(err)
			}
		}
		st := svc.CacheStats()
		fmt.Printf("repeat: %d rounds in %s; plan cache %d compiles, %d hits (hit rate %s)\n",
			*repeat, report.Seconds(time.Since(start).Seconds()),
			st.Misses, st.Hits, report.Percent(st.HitRate()))
	}
	if *traceOut != "" {
		fh, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := o.T().WriteChrome(fh); err != nil {
			log.Fatal(err)
		}
		fh.Close()
		fmt.Printf("wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", *traceOut)
	}
	if *metricsF {
		if err := o.M().WritePrometheus(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Print(o.R().Breakdown(5))
	}
}
