// Command paperbench regenerates every table and figure of the paper's
// evaluation, and runs the extension experiments built on the same
// templates. Everything it prints is modeled (simulated-clock or counted)
// and machine-independent, except the sparse kernel's wall column; how
// fast the host runs the framework is the repo benchmark's question
// (bench/README.md). The experiments are the entries of the catalog
// below, selected by -table, -fig, -ext or -all:
//
//	paperbench -all              # everything, in catalog order
//	paperbench -table 1          # Table 1 (transfer volumes)
//	paperbench -table 2          # Table 2 (execution times)
//	paperbench -fig 1c           # Fig. 1(c) memory-requirement regions
//	paperbench -fig 2            # Fig. 2 transfer/compute breakdown
//	paperbench -fig 3            # Fig. 3 schedule comparison
//	paperbench -fig 6            # Fig. 6 PB-optimal schedule
//	paperbench -fig 8            # Fig. 8 scalability sweep
//	paperbench -ext overlap      # async transfer/compute overlap (C1060)
//	paperbench -ext faults       # resilient execution under injected faults
//	paperbench -ext smoke        # instrumented compile + simulate of edge 512²
//	paperbench -ext cache        # single-flight plan cache under concurrency
//	paperbench -ext pipeline     # pipelined executor: bit-identity + modeled overlap
//	paperbench -ext serve        # two-device serving pool vs a serial C870
//	paperbench -ext chaos        # serving pool under three fault schedules
//	paperbench -ext servesteady  # cross-job residency, pinned vs unpinned
//	paperbench -ext sparse       # load-balancing schedules on SpMV / PageRank / BFS
//	paperbench -ext partition    # the 17 GB CNN partitioned across C870 + 8800
//
// A name that matches no catalog entry is an error. Add -csv to emit
// comma-separated values instead of aligned text.
//
// -trace exports a Chrome trace from the experiments that record one
// (smoke: compile spans and the simulated device timeline; pipeline: the
// pipe:dma / pipe:compute-N wall lanes of a pipelined run; chaos: every
// scenario's pool tracer merged), and -benchout appends the experiment's
// result to a JSON log as one {date, extension, seed, gomaxprocs, result}
// record — the shape of every committed BENCH_*.json:
//
//	paperbench -ext smoke -trace /tmp/t.json -benchout BENCH_obs.json
//	paperbench -ext chaos -seed 1 -rounds 1 -trace /tmp/chaos.json
//	paperbench -ext servesteady -rounds 3 -benchout BENCH_servesteady.json
//	paperbench -ext sparse -sparsen 512
//	paperbench -ext partition -benchout BENCH_partition.json
//
// The self-asserting extensions (serve, chaos, servesteady, sparse,
// partition) exit non-zero when an invariant breaks: a lost job, a report
// whose stats differ from the fault-free reference, a ledger that does
// not drain, outputs that are not bit-identical.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/templates"
	"repro/internal/tensor"
)

// env is what the command line hands every experiment.
type env struct {
	csv     bool
	seed    int64
	rounds  int
	sparseN int
	// trace is where an experiment that records a Chrome trace writes it;
	// nil unless -trace is set.
	trace io.Writer
}

// experiment is one catalog entry: `-<flag> <name>` runs it. run prints
// the experiment's tables and returns what -benchout should record (nil:
// nothing). A result returned together with an error is recorded first,
// then the run fails.
type experiment struct {
	flag, name string
	doc        string
	run        func(env) (result any, err error)
}

// catalog lists every experiment in the order -all runs them: the paper's
// tables and figures first, then the extensions. The -table/-fig/-ext
// usage strings and the name lookup are derived from it.
var catalog = []experiment{
	{"table", "1", "Table 1: floats transferred between CPU and GPU", table1},
	{"table", "2", "Table 2: execution time, baseline vs optimized", table2},
	{"fig", "1c", "Fig. 1(c): edge-detection memory requirements vs input size", fig1c},
	{"fig", "2", "Fig. 2: transfer/compute breakdown of an 8000x8000 convolution", fig2},
	{"fig", "3", "Fig. 3: impact of operator scheduling on data transfers", fig3},
	{"fig", "6", "Fig. 6: PB-optimal schedule of the illustration", fig6},
	{"fig", "8", "Fig. 8: edge-detection runtime vs image size", fig8},
	{"ext", "overlap", "asynchronous transfer/compute overlap on the Tesla C1060", extOverlap},
	{"ext", "faults", "resilient execution under injected transient faults", extFaults},
	{"ext", "smoke", "instrumented compile + simulate of edge 512² (-trace, -benchout)", extSmoke},
	{"ext", "cache", "single-flight plan cache under concurrent load", extCache},
	{"ext", "pipeline", "pipelined executor: bit-identity and modeled overlap (-trace, -benchout)", extPipeline},
	{"ext", "serve", "two-device serving pool vs a serial C870, modeled (-benchout)", extServe},
	{"ext", "chaos", "serving pool under three seeded fault schedules (-seed, -rounds, -trace, -benchout)", extChaos},
	{"ext", "servesteady", "steady-state serving with cross-job residency (-rounds, -benchout)", extServeSteady},
	{"ext", "sparse", "load-balancing schedules on SpMV, PageRank and BFS (-sparsen, -benchout)", extSparse},
	{"ext", "partition", "the 17 GB CNN partitioned across C870 + 8800 GTX (-rounds, -benchout)", extPartition},
}

// selectors are the flags that pick catalog entries by name.
var selectors = []string{"table", "fig", "ext"}

// names lists the catalog names selectable with one flag.
func names(selector string) string {
	var ns []string
	for _, x := range catalog {
		if x.flag == selector {
			ns = append(ns, x.name)
		}
	}
	return strings.Join(ns, ", ")
}

// selectExperiments resolves the command line against the catalog: every
// entry under -all, else the entries want names (selector flag → value,
// "" = flag not given), in catalog order. A value that names no entry is
// an error and selects nothing.
func selectExperiments(all bool, want map[string]string) ([]experiment, error) {
	var sel []experiment
	found := map[string]bool{}
	for _, x := range catalog {
		named := want[x.flag] == x.name
		if named {
			found[x.flag] = true
		}
		if all || named {
			sel = append(sel, x)
		}
	}
	for _, f := range selectors {
		if want[f] != "" && !found[f] {
			return nil, fmt.Errorf("unknown -%s %q (valid: %s)", f, want[f], names(f))
		}
	}
	return sel, nil
}

// record is one entry of a -benchout log, whatever the experiment: when
// and what ran, the seed in effect, the host parallelism (it bounds the
// one host-time column left, the sparse kernel's wall_ms; every other
// value is modeled and machine-independent), and the result.
type record struct {
	Date       string `json:"date"`
	Extension  string `json:"extension"`
	Seed       int64  `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Result     any    `json:"result"`
}

// appendBenchout appends one record to the JSON array at path (creating
// it when absent) and returns the new record count. Existing records are
// carried over as raw JSON, so a log written under an older schema keeps
// every key and value it had.
func appendBenchout(path string, rec record) (int, error) {
	var log []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &log); err != nil {
			return 0, fmt.Errorf("benchout %s: existing file is not a JSON array: %w", path, err)
		}
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	data, err := json.MarshalIndent(append(log, raw), "", "  ")
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return 0, err
	}
	return len(log) + 1, nil
}

// traceFile is the -trace destination. It is created on first write, so
// an experiment that records no trace leaves no empty file behind.
type traceFile struct {
	path string
	f    *os.File
}

func (t *traceFile) Write(p []byte) (int, error) {
	if t.f == nil {
		f, err := os.Create(t.path)
		if err != nil {
			return 0, err
		}
		t.f = f
	}
	return t.f.Write(p)
}

// runExperiments runs the selection in order and stops at the first
// failure. It owns the two outputs every experiment shares: the -trace
// file (one per experiment; the last to write wins under -all) and the
// -benchout log.
func runExperiments(sel []experiment, e env, tracePath, benchOut string) error {
	for _, x := range sel {
		var tf *traceFile
		if tracePath != "" {
			tf = &traceFile{path: tracePath}
			e.trace = tf
		}
		res, err := x.run(e)
		if tf != nil && tf.f != nil {
			if cerr := tf.f.Close(); cerr != nil && err == nil {
				err = cerr
			}
			fmt.Printf("wrote Chrome trace to %s\n", tracePath)
		}
		if res != nil && benchOut != "" {
			n, aerr := appendBenchout(benchOut, record{
				Date:       time.Now().UTC().Format(time.RFC3339),
				Extension:  x.name,
				Seed:       e.seed,
				GoMaxProcs: runtime.GOMAXPROCS(0),
				Result:     res,
			})
			if aerr != nil {
				return aerr
			}
			fmt.Printf("appended %s record %d to %s\n", x.name, n, benchOut)
		}
		if err != nil {
			return fmt.Errorf("-%s %s: %w", x.flag, x.name, err)
		}
	}
	return nil
}

func main() {
	tableFlag := flag.String("table", "", "table to regenerate: "+names("table"))
	figFlag := flag.String("fig", "", "figure to regenerate: "+names("fig"))
	extFlag := flag.String("ext", "", "extension experiment: "+names("ext"))
	allFlag := flag.Bool("all", false, "run every experiment")
	csvFlag := flag.Bool("csv", false, "emit CSV instead of aligned text")
	traceFlag := flag.String("trace", "", "smoke/pipeline/chaos run: write Chrome trace_event JSON to this file")
	benchOut := flag.String("benchout", "", "append the experiment's result record to this JSON file")
	seedFlag := flag.Int64("seed", 2009, "chaos run: fault-schedule seed")
	roundsFl := flag.Int("rounds", 0, "chaos/servesteady run: rounds of the 8 paper workloads; partition run: accounting rounds (0 = default)")
	sparseNFl := flag.Int("sparsen", 0, "sparse run: adjacency rows (0 = 4096; CI passes a small value)")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintln(out, "\nExperiments:")
		for _, x := range catalog {
			fmt.Fprintf(out, "  -%-5s %-12s %s\n", x.flag, x.name, x.doc)
		}
	}
	flag.Parse()

	sel, err := selectExperiments(*allFlag,
		map[string]string{"table": *tableFlag, "fig": *figFlag, "ext": *extFlag})
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}
	if len(sel) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	e := env{csv: *csvFlag, seed: *seedFlag, rounds: *roundsFl, sparseN: *sparseNFl}
	if err := runExperiments(sel, e, *traceFlag, *benchOut); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
}

func (e env) emit(t *report.Table) {
	if e.csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}

func na(v int64) string {
	if v < 0 {
		return "N/A"
	}
	return report.Int(v)
}

func naSec(v float64) string {
	if v < 0 {
		return "N/A"
	}
	return report.Seconds(v)
}

// equalOr renders a bit-identity verdict.
func equalOr(equal bool) string {
	if equal {
		return "equal"
	}
	return "DIVERGED"
}

func table1(e env) (any, error) {
	rows, err := experiments.Table1(experiments.PaperWorkloads())
	if err != nil {
		return nil, err
	}
	t := report.New("Table 1: floats transferred between CPU and GPU",
		"Template", "Input", "Total temp data", "I/O lower bound",
		"Baseline", "Optimized C870", "Optimized 8800GTX")
	for _, r := range rows {
		t.Add(r.Template, r.Input, report.Int(r.TotalTemp), report.Int(r.Lower),
			na(r.Baseline), report.Int(r.OptC870), report.Int(r.Opt8800))
	}
	e.emit(t)
	return nil, nil
}

func table2(e env) (any, error) {
	rows, err := experiments.Table2(experiments.PaperWorkloads())
	if err != nil {
		return nil, err
	}
	t := report.New("Table 2: execution time (simulated seconds)",
		"Template", "Input", "C870 baseline", "C870 optimized", "C870 speedup",
		"8800 baseline", "8800 optimized", "8800 speedup")
	thrash := false
	for _, r := range rows {
		sp1, sp2 := "N/A", "N/A"
		if r.SpeedupC870 > 0 {
			sp1 = report.Ratio(r.SpeedupC870)
		}
		if r.Speedup8800 > 0 {
			sp2 = report.Ratio(r.Speedup8800)
		}
		opt8800 := naSec(r.Optimized8800)
		if r.Thrashing8800 {
			opt8800 += "*"
			thrash = true
		}
		t.Add(r.Template, r.Input,
			naSec(r.BaselineC870), naSec(r.OptimizedC870), sp1,
			naSec(r.Baseline8800), opt8800, sp2)
	}
	e.emit(t)
	if thrash {
		fmt.Println("* transfer volume exceeds the 8 GB host memory: the paper")
		fmt.Println("  reports inconsistent times (thrashing) for such entries.")
	}
	return nil, nil
}

func fig1c(e env) (any, error) {
	dims := []int{1000, 2000, 4000, 6000, 7000, 8000, 9000, 10000, 12000, 15000, 18000, 20000, 22000, 25000}
	rows, err := experiments.Fig1c(dims, gpu.TeslaC870())
	if err != nil {
		return nil, err
	}
	t := report.New("Fig. 1(c): edge-detection memory requirements vs input size (Tesla C870)",
		"Image dim", "Image MB", "Conv op MB", "Max op MB", "Strategy", "Ops split", "Parts")
	for _, r := range rows {
		t.Add(fmt.Sprint(r.ImageDim), fmt.Sprintf("%.0f", r.ImageMB),
			fmt.Sprintf("%.0f", r.ConvOpMB), fmt.Sprintf("%.0f", r.MaxOpMB),
			r.Strategy, fmt.Sprint(r.SplitNodes), fmt.Sprint(r.MaxParts))
	}
	e.emit(t)
	return nil, nil
}

func fig2(e env) (any, error) {
	ks := []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	rows, err := experiments.Fig2(8000, ks, gpu.TeslaC870())
	if err != nil {
		return nil, err
	}
	t := report.New("Fig. 2: execution-time breakdown for 8000x8000 convolution (Tesla C870)",
		"Kernel", "CPU-GPU transfer", "GPU computation", "Total (s)")
	for _, r := range rows {
		t.Add(fmt.Sprint(r.KernelSize), report.Percent(r.TransferShare),
			report.Percent(r.ComputeShare), report.Seconds(r.TotalSeconds))
	}
	e.emit(t)
	return nil, nil
}

func fig3(e env) (any, error) {
	rows, err := experiments.Fig3(4)
	if err != nil {
		return nil, err
	}
	t := report.New("Fig. 3: impact of operator scheduling on data transfers (capacity 4 units)",
		"Schedule", "Transfer policy", "Units moved")
	for _, r := range rows {
		units := "infeasible"
		if r.Feasible {
			units = fmt.Sprint(r.Units)
		}
		t.Add(r.Schedule, r.Policy, units)
	}
	e.emit(t)
	fmt.Println("Paper quotes 15 vs 8 units; with the paper's own latest-time-of-use")
	fmt.Println("transfer scheduler the depth-first schedule costs exactly 8.")
	return nil, nil
}

func fig6(env) (any, error) {
	for _, capacity := range []int64{4, 5} {
		res, err := experiments.Fig6(capacity, 0)
		if err != nil {
			return nil, err
		}
		fmt.Printf("Fig. 6 (capacity %d units): PB optimum = %d units (%v), heuristic = %d units\n",
			capacity, res.OptimalUnits, res.Status, res.HeuristicCost)
		if capacity == 5 {
			fmt.Println("\nOptimal execution plan (capacity 5):")
			fmt.Print(res.Plan.String())
		}
	}
	return nil, nil
}

func fig8(e env) (any, error) {
	dims := []int{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000}
	rows, err := experiments.Fig8(dims, gpu.TeslaC870())
	if err != nil {
		return nil, err
	}
	t := report.New("Fig. 8: edge-detection runtime vs image size (Tesla C870, 16x16 kernels)",
		"Image dim", "Baseline (s)", "Optimized (s)", "Best possible (s)", "Opt/Best")
	for _, r := range rows {
		t.Add(fmt.Sprint(r.ImageDim), naSec(r.Baseline), report.Seconds(r.Optimized),
			report.Seconds(r.BestPossible), fmt.Sprintf("%.2f", r.OverBest))
	}
	e.emit(t)
	return nil, nil
}

func extOverlap(e env) (any, error) {
	dims := []int{2000, 10000, 14000, 18000, 22000, 26000, 30000}
	rows, err := experiments.Overlap(dims, gpu.TeslaC1060())
	if err != nil {
		return nil, err
	}
	t := report.New("Extension: asynchronous transfer/compute overlap (Tesla C1060)",
		"Image dim", "Serialized (s)", "Overlapped (s)", "Improvement", "Transfer share")
	for _, r := range rows {
		t.Add(fmt.Sprint(r.ImageDim), report.Seconds(r.SyncSeconds),
			report.Seconds(r.AsyncSeconds), report.Ratio(r.Improvement),
			report.Percent(r.TransferShare))
	}
	e.emit(t)
	fmt.Println("The paper's hardware could not overlap (§3.3.2); this models the")
	fmt.Println("stated extension on the next-generation part.")
	return nil, nil
}

func extFaults(e env) (any, error) {
	rates := []float64{0.001, 0.005, 0.01, 0.02, 0.05}
	rows, err := experiments.Chaos(16000, rates, gpu.TeslaC870(), 2009)
	if err != nil {
		return nil, err
	}
	t := report.New("Extension: resilient execution under injected transient faults (Tesla C870, edge 16000²)",
		"Fault rate", "Device calls", "Retries", "Backoff (s)", "Clean (s)", "Faulty (s)", "Overhead")
	for _, r := range rows {
		t.Add(fmt.Sprintf("%.1f%%", r.Rate*100), fmt.Sprint(r.Calls), fmt.Sprint(r.Retries),
			report.Seconds(r.BackoffSeconds), report.Seconds(r.CleanTime),
			report.Seconds(r.FaultyTime), fmt.Sprintf("%.2f%%", r.OverheadPct))
	}
	e.emit(t)
	fmt.Println("Each transfer and kernel launch fails with the given probability;")
	fmt.Println("the resilient executor retries with capped exponential backoff,")
	fmt.Println("charging the backoff to the simulated clock.")
	return nil, nil
}

// smokeResult is the smoke run's record: the full gpu.Stats and metrics
// snapshot of one instrumented compile + simulate.
type smokeResult struct {
	Workload string       `json:"workload"`
	Stats    gpu.Stats    `json:"stats"`
	Peak     obs.Peak     `json:"peak_residency"`
	Metrics  obs.Snapshot `json:"metrics"`
}

func extSmoke(e env) (any, error) {
	o := obs.New()
	sp := o.T().Begin("template:build", "compile")
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 512, ImageW: 512, KernelSize: 16, Orientations: 4})
	sp.End()
	if err != nil {
		return nil, err
	}
	svc := core.NewService(core.WithDevice(gpu.TeslaC870()), core.WithObserver(o))
	compiled, _, err := svc.Compile(context.Background(), g)
	if err != nil {
		return nil, err
	}
	rep, err := compiled.Simulate(context.Background())
	if err != nil {
		return nil, err
	}
	fmt.Printf("smoke: edge 512² on %s: %d steps, %d launches, simulated %s\n",
		gpu.TeslaC870(), len(compiled.Plan.Steps), rep.Stats.KernelLaunches,
		report.Seconds(rep.Stats.TotalTime()))
	fmt.Print(o.R().Breakdown(3))
	if e.trace != nil {
		if err := o.T().WriteChrome(e.trace); err != nil {
			return nil, err
		}
	}
	return smokeResult{
		Workload: "edge-512-c870-heuristic",
		Stats:    rep.Stats,
		Peak:     o.R().Peak(),
		Metrics:  o.M().Snapshot(),
	}, nil
}

// extCache demonstrates the memoizing plan cache: a pool of goroutines
// repeatedly compiles and simulates a small template mix through one
// shared core.Service. Single-flight guarantees each distinct
// compilation runs its passes exactly once no matter how many workers
// ask for it concurrently; everything else is a hit.
func extCache(e env) (any, error) {
	svc := core.NewService(core.WithDevice(gpu.TeslaC870()), core.WithObserver(obs.New()))
	builders := map[string]func() (*graph.Graph, error){
		"edge-256": func() (*graph.Graph, error) {
			g, _, err := templates.EdgeDetect(templates.EdgeConfig{
				ImageH: 256, ImageW: 256, KernelSize: 16, Orientations: 4})
			return g, err
		},
		"edge-384": func() (*graph.Graph, error) {
			g, _, err := templates.EdgeDetect(templates.EdgeConfig{
				ImageH: 384, ImageW: 384, KernelSize: 16, Orientations: 4})
			return g, err
		},
		"cnn-small": func() (*graph.Graph, error) {
			g, _, err := templates.CNN(templates.SmallCNN(160, 120))
			return g, err
		},
	}
	const rounds = 4
	var wg sync.WaitGroup
	errc := make(chan error, rounds*len(builders))
	for r := 0; r < rounds; r++ {
		for name, build := range builders {
			wg.Add(1)
			go func(name string, build func() (*graph.Graph, error)) {
				defer wg.Done()
				g, err := build()
				if err == nil {
					_, err = svc.CompileAndSimulate(context.Background(), g)
				}
				if err != nil {
					errc <- fmt.Errorf("%s: %w", name, err)
				}
			}(name, build)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return nil, err
	}
	st := svc.CacheStats()
	t := report.New("Extension: memoizing plan cache under concurrent load (Tesla C870)",
		"Lookups", "Compiles", "Hits", "In-flight joins", "Hit rate")
	t.Add(fmt.Sprint(st.Hits+st.Misses+st.InflightWaits), fmt.Sprint(st.Misses),
		fmt.Sprint(st.Hits), fmt.Sprint(st.InflightWaits), report.Percent(st.HitRate()))
	e.emit(t)
	fmt.Printf("%d goroutines compiled %d distinct templates; single-flight ran the\n",
		rounds*len(builders), len(builders))
	fmt.Println("compile passes once per template and served every other lookup from cache.")
	return nil, nil
}

func extPipeline(e env) (any, error) {
	rows, err := experiments.Pipeline()
	if err != nil {
		return nil, err
	}
	t := report.New("Extension: pipelined DMA/compute execution (materialized)",
		"Template", "Input", "Steps", "Modeled overlap", "Outputs")
	for _, r := range rows {
		t.Add(r.Template, r.Input, fmt.Sprint(r.Steps),
			report.Ratio(r.ModeledSpeedup), equalOr(r.OutputsEqual))
	}
	e.emit(t)
	fmt.Println("Same plan both sides: the pipelined run overlaps real copy and kernel work")
	fmt.Println("on the host and its outputs are compared bit for bit with the sequential")
	fmt.Println("run's. Modeled overlap is the simulated two-engine makespan on the Tesla")
	fmt.Println("C1060, machine-independent; the measured host-time ratio is the repo")
	fmt.Println("benchmark's exec.pipe_over_seq (bench/README.md).")
	if e.trace != nil {
		if err := writePipelineTrace(e.trace); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// writePipelineTrace runs one pipelined edge workload through the full
// core path (Pipeline config → prefetch pass → pipelined exec.Run) under
// instrumentation and exports the Chrome trace: the pipe:dma and
// pipe:compute-N wall lanes show the real engine overlap.
func writePipelineTrace(w io.Writer) error {
	o := obs.New()
	g, bufs, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 512, ImageW: 512, KernelSize: 16, Orientations: 4})
	if err != nil {
		return err
	}
	in := exec.Inputs{bufs.Image.ID: randomTensor(1, 512, 512)}
	for i, kb := range bufs.Kernels {
		in[kb.ID] = randomTensor(int64(10+i), 16, 16)
	}
	svc := core.NewService(
		core.WithDevice(gpu.Custom("pipeline-arena", 2<<20)),
		core.WithObserver(o),
		core.WithPipeline(0),
	)
	compiled, _, err := svc.Compile(context.Background(), g)
	if err != nil {
		return err
	}
	if _, err := svc.Execute(context.Background(), compiled, in); err != nil {
		return err
	}
	return o.T().WriteChrome(w)
}

func randomTensor(seed int64, rows, cols int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(rows, cols)
	for r := 0; r < rows; r++ {
		row := t.Row(r)
		for i := range row {
			row[i] = rng.Float32()*2 - 1
		}
	}
	return t
}

func extServe(e env) (any, error) {
	res, err := experiments.Serve()
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("Extension: multi-device serving (C870+8800, %d streams/device, %d closed-loop clients)",
			res.Streams, res.Clients),
		"Template", "Input", "Jobs", "Modeled exec")
	for _, r := range res.Rows {
		t.Add(r.Template, r.Input, fmt.Sprint(r.Jobs), report.Seconds(r.ModeledSeconds))
	}
	e.emit(t)
	d := report.New("Per-device", "Device", "Completed", "Modeled busy", "Utilization", "Compiles", "Cache hits")
	for _, dev := range res.Devices {
		d.Add(dev.Name, fmt.Sprint(dev.Completed), report.Seconds(dev.ModeledBusySec),
			fmt.Sprintf("%.0f%%", dev.Utilization*100),
			fmt.Sprint(dev.CacheMisses), fmt.Sprint(dev.CacheHits))
	}
	e.emit(d)
	fmt.Printf("serial C870 baseline: %s modeled for %d jobs; pool makespan %s — modeled speedup %.2fx\n",
		report.Seconds(res.SerialModeledSec), res.Jobs, report.Seconds(res.PoolModeledSec), res.ModeledSpeedup)
	fmt.Printf("%d coalesced, %d rejected, %d faults; every report stat-identical to its fault-free reference\n",
		res.Coalesced, res.Rejected, res.OOMFaults)
	fmt.Println("Every column replays each plan on the device's simulated clock and is")
	fmt.Println("machine-independent; measured serving latency is the repo benchmark's")
	fmt.Println("serve_mixed workload (bench/README.md).")
	return res, nil
}

// extChaos runs the serve chaos harness: the 8 paper workloads replayed
// through the fault-tolerant pool under three seeded fault schedules
// (permanent device loss, correlated transients, a flapping device). It
// fails if any invariant breaks: a lost job, a clean execution whose
// stats diverge from the fault-free reference, unbounded modeled-time
// inflation, or a device that fails to quarantine/recover.
func extChaos(e env) (any, error) {
	res, err := experiments.ServeChaos(e.seed, e.rounds, e.trace)
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("Extension: serve chaos harness (C870+8800, seed %d, %d jobs/scenario)",
			res.Seed, res.Rounds*8),
		"Scenario", "Jobs", "Lost", "Clean", "Stat-identical", "Recovered", "Migrated", "Max inflation")
	for _, sc := range res.Scenarios {
		t.Add(sc.Name, fmt.Sprint(sc.Jobs), fmt.Sprint(sc.Lost), fmt.Sprint(sc.Clean),
			fmt.Sprint(sc.StatIdentical), fmt.Sprint(sc.Recovered), fmt.Sprint(sc.Migrated),
			fmt.Sprintf("%.2fx", sc.MaxInflation))
	}
	e.emit(t)
	d := report.New("Per-device", "Scenario", "Device", "Health", "Completed",
		"Migrated out", "Migrated in", "Quarantines", "Probes", "Recoveries", "Faults")
	for _, sc := range res.Scenarios {
		for _, dev := range sc.Devices {
			d.Add(sc.Name, dev.Name, dev.Health, fmt.Sprint(dev.Completed),
				fmt.Sprint(dev.MigratedOut), fmt.Sprint(dev.MigratedIn),
				fmt.Sprint(dev.Quarantines), fmt.Sprint(dev.Probes),
				fmt.Sprint(dev.Recoveries), fmt.Sprint(dev.Faults))
		}
	}
	e.emit(d)
	fmt.Println("Invariants held: zero lost jobs, clean executions stat-identical to the")
	fmt.Println("fault-free reference, modeled-time inflation bounded, quarantine and")
	fmt.Println("probe-recovery transitions observed where the schedule demanded them.")
	return res, nil
}

// extServeSteady runs the steady-state serving experiment: the 8 paper
// workloads cycled by a closed-loop fleet through a pinned (cross-job
// residency + rolling admission) and an unpinned pool on an identical
// schedule, warmup round excluded. It fails when any headline invariant
// breaks — a failed job, per-job H2D reduction under 40%, a pinned p99
// that does not strictly improve, or a committed-bytes ledger that fails
// to drain back to the pinned-set size.
func extServeSteady(e env) (any, error) {
	res, err := experiments.ServeSteady(e.rounds)
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("Extension: steady-state serving with cross-job residency (2x C1060, %d streams/device, %d clients, warmup %d round)",
			res.Streams, res.Clients, res.WarmupRounds),
		"Fleet", "Jobs", "Modeled p50", "Modeled p99", "H2D/job (MB)", "Makespan", "Pin hits", "Evictions", "Overlap (s)")
	mb := func(b float64) string { return fmt.Sprintf("%.1f", b/(1<<20)) }
	for _, f := range []*experiments.SteadyFleet{&res.Unpinned, &res.Pinned} {
		name := "unpinned"
		if f.Residency {
			name = "pinned"
		}
		t.Add(name, fmt.Sprint(f.Jobs),
			report.Seconds(f.ModeledP50Sec), report.Seconds(f.ModeledP99Sec),
			mb(f.H2DBytesPerJob), report.Seconds(f.ModeledMakespanSec),
			fmt.Sprint(f.PinHits), fmt.Sprint(f.PinEvictions),
			fmt.Sprintf("%.3f", f.RollingOverlapSec))
	}
	e.emit(t)
	fmt.Printf("steady-state H2D bytes/job reduced %.1f%%; modeled p99 improved %.1f%%; ledger clean: %v\n",
		100*res.H2DReduction, 100*res.P99Improvement, res.LedgerClean)
	fmt.Println("Pinned fleets keep read-only weight buffers device-resident across jobs and")
	fmt.Println("overlap the next batch's lead prefetches with the previous compute tail; the")
	fmt.Println("charged (billed) stats are bit-identical to the unpinned run by construction.")
	return res, nil
}

// extSparse runs the irregular-workload experiment: SpMV under uniform
// and power-law row distributions with each load-balancing schedule,
// then PageRank and BFS-levels end to end per schedule. It fails if any
// schedule's outputs or modeled stats diverge from the static run.
func extSparse(e env) (any, error) {
	res, err := experiments.Sparse(e.sparseN)
	if err != nil {
		return nil, err
	}
	k := report.New(
		fmt.Sprintf("Extension: load-balancing schedules on SpMV (n=%d, avg nnz/row=%d, skew=%.2f, GOMAXPROCS=%d)",
			res.N, res.AvgNNZ, res.Skew, res.GoMaxProcs),
		"Distribution", "Schedule", "Kernel (ms)", "Wall speedup",
		"Bottleneck units", "Modeled speedup", "Outputs")
	for _, r := range res.Kernel {
		k.Add(r.Dist, r.Schedule, fmt.Sprintf("%.3f", r.WallMS),
			report.Ratio(r.Speedup), report.Int(r.ModeledUnits),
			fmt.Sprintf("%.2fx", r.ModeledSpeedup), equalOr(r.OutputsEqual))
	}
	e.emit(k)
	tt := report.New("End-to-end sparse templates per schedule (Tesla C870)",
		"Template", "Distribution", "Schedule", "Modeled exec", "Outputs", "Modeled stats")
	for _, r := range res.Templates {
		tt.Add(r.Template, r.Dist, r.Schedule, report.Seconds(r.ModeledSeconds),
			equalOr(r.OutputsEqual), equalOr(r.StatsEqual))
	}
	e.emit(tt)
	fmt.Printf("power-law adjacency footprint: %s packed floats vs %s dense (%.1f%% of the n×n extent)\n",
		report.Int(res.PackedFloats), report.Int(res.DenseFloats),
		100*float64(res.PackedFloats)/float64(res.DenseFloats))
	fmt.Println("Schedules change host wall time only: outputs are bit-identical and the")
	fmt.Println("modeled stats identical under every schedule. Bottleneck units is the")
	fmt.Println("busiest worker's row work at a fixed 16-worker pool — machine-independent,")
	fmt.Println("unlike the wall columns, which need GOMAXPROCS > 1 to show a speedup.")
	return res, nil
}

// extPartition runs the cross-device partition experiment: the paper's
// 17 GB large CNN paged through each single card versus partitioned
// across the C870 + 8800 GTX pool. The result is recorded, then the run
// fails unless the acceptance criteria hold: the partitioned modeled
// makespan strictly beats the best single-device paged baseline, every
// round is OOM-free on member-sized devices with deterministic charged
// stats, and the materialized verification run is bit-identical to a
// sequential single-device execution of the same split graph.
func extPartition(e env) (any, error) {
	res, err := experiments.Partition(e.rounds)
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("Extension: cross-device partition of the %s (%s, %.1f GB working set)",
			res.Template, res.Input, float64(res.WorkingSetBytes)/1e9),
		"Run", "Device", "Memory", "Modeled exec", "Notes")
	for _, b := range res.Baselines {
		notes := "paged single-device"
		if b.Thrashing {
			notes += ", host thrashing"
		}
		t.Add("baseline", b.Device, report.Int(b.MemoryBytes)+" B",
			report.Seconds(b.ModeledSec), notes)
	}
	t.Add("partitioned", fmt.Sprintf("%d-device pool", len(res.Parts)), "",
		report.Seconds(res.PartitionedSec),
		fmt.Sprintf("%d cut edges, %s cut floats", res.CrossEdges, report.Int(res.CutFloats)))
	e.emit(t)

	pt := report.New("Partitioned parts", "Part", "Device", "Memory",
		"Planned peak", "Ops", "Steps", "Busy")
	for p, part := range res.Parts {
		pt.Add(fmt.Sprintf("%d", p), part.Device,
			report.Int(part.MemoryBytes)+" B", report.Int(part.PeakBytes)+" B",
			report.Int(int64(part.Ops)), report.Int(int64(part.Steps)),
			report.Seconds(part.BusySec))
	}
	e.emit(pt)

	fmt.Printf("speedup over best single-device baseline: %.2fx (%d accounting rounds)\n",
		res.Speedup, res.Rounds)
	fmt.Printf("verification at %s: outputs bit-identical=%v, deterministic=%v, oom_free=%v\n",
		res.VerifyInput, res.OutputsBitIdentical, res.Deterministic, res.OOMFree)

	var violations []string
	if res.Speedup <= 1 {
		violations = append(violations, fmt.Sprintf("speedup %.3f not > 1", res.Speedup))
	}
	if !res.OOMFree {
		violations = append(violations, "a partitioned round exceeded member memory")
	}
	if !res.Deterministic {
		violations = append(violations, "charged stats diverged across rounds")
	}
	if !res.OutputsBitIdentical {
		violations = append(violations, "materialized outputs diverged from the single-device reference")
	}
	if len(violations) > 0 {
		return res, fmt.Errorf("partition acceptance failed: %s", strings.Join(violations, "; "))
	}
	return res, nil
}
