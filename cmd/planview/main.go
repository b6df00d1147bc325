// Command planview inspects the framework's compilation pipeline for a
// template: the operator graph (optionally as Graphviz dot, annotated
// with plan positions), the result of operator splitting for a device,
// the execution plan step list, and the observability outputs (Chrome
// trace export, metrics, memory-residency timeline).
//
//	planview -template edge -h 256 -w 256 -device mem=262144
//	planview -template fig3 -dot
//	planview -template cnn-small -h 256 -w 192 -plan | head -50
//	planview -template edge -residency
//	planview -checktrace out.json
//	planview -device c1060 -planner pb-optimal -passes
//	planview -template cnn-small -h 512 -w 384 -partition
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/workload"
)

var (
	tmpl       = flag.String("template", "edge", "catalog template:"+workload.Usage())
	height     = flag.Int("h", 256, "input height (pagerank, bfs: vertex count)")
	width      = flag.Int("w", 256, "input width")
	device     = flag.String("device", "c870", "GPU: c870, 8800, c1060, or mem=<bytes>")
	dot        = flag.Bool("dot", false, "print the (split) graph in Graphviz dot, annotated with plan positions")
	showPlan   = flag.Bool("plan", false, "print the full plan step list")
	showTrace  = flag.Bool("trace", false, "replay the plan and print the device timeline")
	overlap    = flag.Bool("overlap", false, "enable async transfer overlap (c1060 only)")
	savePlan   = flag.String("save-plan", "", "write the plan as JSON to this file")
	loadPlan   = flag.String("load-plan", "", "load a JSON plan instead of scheduling, verify, and use it")
	verify     = flag.Bool("verify", false, "run the static verifier on the plan and report the result")
	traceJSON  = flag.String("tracejson", "", "replay the plan and write Chrome trace_event JSON to this file")
	metricsF   = flag.Bool("metrics", false, "replay the plan and print the metrics registry")
	residency  = flag.Bool("residency", false, "replay the plan and print the memory-residency timeline and peak breakdown")
	checkTrace = flag.String("checktrace", "", "validate a Chrome trace JSON file and exit")
	passes     = flag.Bool("passes", false, "print the compile pass pipeline for the chosen device/planner and exit")
	plannerF   = flag.String("planner", "heuristic", "planner: heuristic, baseline, or pb-optimal")
	partitionF = flag.Bool("partition", false, "compile the template partitioned across the C870 + 8800 GTX pool and print the joined plan")
	schedF     = flag.String("schedule", "", "load-balancing schedule: static, mergepath, or worksteal (default static)")
)

func main() {
	flag.Parse()
	if *checkTrace != "" {
		data, err := os.ReadFile(*checkTrace)
		if err != nil {
			log.Fatal(err)
		}
		c, err := obs.ValidateChrome(data)
		if err != nil {
			log.Fatalf("checktrace %s: %v", *checkTrace, err)
		}
		fmt.Printf("trace %s OK: %s\n", *checkTrace, c)
		return
	}
	spec, err := gpu.ParseSpec(*device)
	if err != nil {
		log.Fatal(err)
	}
	planner, err := core.ParsePlanner(*plannerF)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's 16×16 edge kernel; the other templates ignore it.
	g, _, err := workload.Spec{Template: *tmpl, H: *height, W: *width, Kernel: 16}.Build()
	if err != nil {
		log.Fatal(err)
	}

	if *partitionF {
		specs := []gpu.Spec{gpu.TeslaC870(), gpu.GeForce8800GTX()}
		pc, err := core.NewEngine(core.Config{}).CompilePartitioned(context.Background(), g, specs)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range pc.Diags {
			fmt.Println(d)
		}
		fmt.Print(pc.Partition.String())
		fmt.Printf("modeled joined makespan: %.3gs (%s cut floats over %d cross edges)\n",
			pc.Makespan, report.Int(pc.CutFloats), len(pc.Partition.Edges))
		return
	}

	var o *obs.Observer
	if *traceJSON != "" || *metricsF || *residency {
		o = obs.New()
	}

	ctx := context.Background()
	before := g.Stats()
	opts := []core.Option{
		core.WithDevice(spec),
		core.WithPlanner(planner),
		core.WithObserver(o),
		core.WithSchedule(*schedF),
	}
	if *overlap {
		opts = append(opts, core.WithOverlap())
	}
	svc := core.NewService(opts...)
	eng := svc.Engine()
	if *passes {
		fmt.Printf("compile pipeline for %s (planner %s):\n", spec.Name, planner)
		for i, name := range eng.PassNames() {
			fmt.Printf("  %2d. %s\n", i+1, name)
		}
		return
	}
	compiled, _, err := svc.Compile(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	// The service compiles a clone; every downstream view (stats, dot,
	// plan replay) wants the split graph the plan refers to.
	g = compiled.Graph
	after := g.Stats()
	fmt.Printf("template %s on %s\n", *tmpl, spec)
	fmt.Printf("before split: %d ops, %d buffers, largest op %s\n",
		before.Operators, before.DataStructures, report.MB(before.MaxFootprint))
	fmt.Printf("after split:  %d ops, %d buffers, largest op %s (%d ops split)\n",
		after.Operators, after.DataStructures, report.MB(after.MaxFootprint),
		compiled.Split.SplitNodes)
	h2d, d2h := compiled.Plan.TransferFloats()
	fmt.Printf("plan: %d steps, H2D %s, D2H %s, peak residency %s\n",
		len(compiled.Plan.Steps), report.MB(h2d), report.MB(d2h), report.MB(compiled.Plan.PeakFloats))

	if *loadPlan != "" {
		fh, err := os.Open(*loadPlan)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := sched.ReadPlan(fh, g)
		fh.Close()
		if err != nil {
			log.Fatal(err)
		}
		if err := sched.Verify(g, plan, eng.Capacity()); err != nil {
			log.Fatalf("loaded plan failed verification: %v", err)
		}
		compiled.Plan = plan
		fmt.Printf("loaded and verified plan from %s (%d steps)\n", *loadPlan, len(plan.Steps))
	}
	if *savePlan != "" {
		fh, err := os.Create(*savePlan)
		if err != nil {
			log.Fatal(err)
		}
		if err := sched.WritePlan(fh, compiled.Plan); err != nil {
			log.Fatal(err)
		}
		fh.Close()
		fmt.Printf("wrote plan to %s\n", *savePlan)
	}
	if *verify {
		if err := sched.Verify(g, compiled.Plan, eng.Capacity()); err != nil {
			log.Fatalf("plan failed verification: %v", err)
		}
		fmt.Printf("plan verified: %d steps satisfy every executor invariant at capacity %s\n",
			len(compiled.Plan.Steps), report.MB(eng.Capacity()))
	}
	if *dot {
		fmt.Println(g.DOTAnnotated(*tmpl, annotations(g, compiled.Plan)))
	}
	if *showPlan {
		fmt.Print(compiled.Plan.String())
	}
	if *showTrace {
		tr := &gpu.Trace{}
		if _, err := exec.Run(ctx, g, compiled.Plan, nil, exec.Options{
			Mode: exec.Accounting, Device: gpu.New(spec), Trace: tr, Overlap: compiled.Overlap}); err != nil {
			log.Fatal(err)
		}
		fmt.Print(tr.Gantt(100))
		fmt.Print(tr.Summary())
	}
	if o != nil {
		if _, err := compiled.Simulate(ctx); err != nil {
			log.Fatal(err)
		}
		if *traceJSON != "" {
			fh, err := os.Create(*traceJSON)
			if err != nil {
				log.Fatal(err)
			}
			if err := o.T().WriteChrome(fh); err != nil {
				log.Fatal(err)
			}
			fh.Close()
			fmt.Printf("wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", *traceJSON)
		}
		if *residency {
			fmt.Print(o.R().Timeline(100, 8, 10))
			fmt.Print(o.R().Breakdown(10))
		}
		if *metricsF {
			if err := o.M().WritePrometheus(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	}
}
