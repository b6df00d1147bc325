// Command bench is the repository's benchmark: four closed-loop,
// fixed-work workloads, ten end-to-end metrics each, and a traced run that
// times the calls into every layer's public functions. See README.md in
// this directory; BENCHMARK.json at the repository root declares the
// metrics this program prints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

var processStart = time.Now()

// instance is one workload, set up and warm.
type instance interface {
	// op is the timed operation (see opFunc).
	op(client, i int, tr *tracer) (float64, opStats, error)
	// after runs the traced run's side measurements after a traced block.
	after(block int, tr *tracer) error
	// finish runs the checks that are too costly to repeat per op.
	finish() error
	// layers fills the workload's per-layer metrics from the spans.
	layers(tr *tracer, m map[string]float64)
	// opSpan names the root span of a traced op.
	opSpan() string
	close()
}

// workloadDef is one row of BENCHMARK.json's workloads.
type workloadDef struct {
	name    string
	clients int
	// opsPerSecond is the frozen work rate per client: a run of --seconds
	// S does round(S × opsPerSecond) ops per client however fast the
	// commit under test is, so per-op and retained-state metrics compare
	// equal work. Sized once, on the commit that added the benchmark, so
	// that the timed phase lasts about S seconds there.
	opsPerSecond float64
	setup        func(seed int64, opsPerClient int, traced bool, want *expectedFile) (instance, error)
}

var workloads = []workloadDef{
	{"compile_cold", 1, 3, func(_ int64, _ int, _ bool, want *expectedFile) (instance, error) {
		return setupCompile(want)
	}},
	{"exec_sequential", 1, 5, func(seed int64, _ int, _ bool, want *expectedFile) (instance, error) {
		return setupExec(matSeq, seed, want)
	}},
	{"exec_pipelined", 1, 4, func(seed int64, _ int, _ bool, want *expectedFile) (instance, error) {
		return setupExec(matPipe, seed, want)
	}},
	{"serve_mixed", serveClients, 2, func(seed int64, ops int, traced bool, want *expectedFile) (instance, error) {
		return setupServe(seed, ops, traced, want)
	}},
}

// minTimedOps is the fewest timed ops a run may have: below it the 10th
// percentile rests on too few samples to be the op's undisturbed cost.
const minTimedOps = 60

// setupRepeats is how often an end-to-end run sets the workload up. A
// traced run sets up once: setup_s is an end-to-end metric.
const setupRepeats = 3

// config is one run.
type config struct {
	workload     workloadDef
	seed         int64
	opsPerClient int
	traced       bool
	tracePath    string // where a traced run writes its spans; "" = nowhere
	// setups is how often the workload is set up before the timed phase;
	// the run reports the median and measures on the last.
	setups int
}

// stamp says where and on what a result was measured.
type stamp struct {
	Workload   string  `json:"workload"`
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	Seed       int64   `json:"seed"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Clients    int     `json:"clients"`
	Ops        int     `json:"ops"`
	TimedS     float64 `json:"timed_seconds"`
	Traced     bool    `json:"traced"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout
}

// measure runs one workload once and returns its stamp and result.
func measure(cfg config, stderr io.Writer) (*stamp, *result, error) {
	nproc := runtime.NumCPU()
	procs := min(nproc, 2)
	runtime.GOMAXPROCS(procs)
	if nproc < 2 {
		fmt.Fprintf(stderr, "WARNING: %d CPU: the second thread of every workload shares it\n", nproc)
	}
	want, err := loadExpected()
	if err != nil {
		return nil, nil, err
	}

	var inst instance
	var setupS []float64
	t0 := processStart
	for r := 0; r < cfg.setups; r++ {
		if inst != nil {
			inst.close()
		}
		if inst, err = cfg.workload.setup(cfg.seed, cfg.opsPerClient, cfg.traced, want); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		t0 = time.Now()
	}
	defer inst.close()

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	ph, err := runPhase(cfg.workload.clients, cfg.opsPerClient, cfg.traced, tr, inst.op, inst.after, stderr)
	if err != nil {
		return nil, nil, err
	}
	heapMB := liveHeapMB() // before teardown: what the process retains
	correct := ph.failed == 0
	if err := inst.finish(); err != nil {
		fmt.Fprintf(stderr, "FAILED check after the run: %v\n", err)
		correct = false
	}
	if spread := spreadPct(ph.blockMedians); spread > 15 {
		fmt.Fprintf(stderr, "WARNING: block medians spread %.1f%% (calibration loop %.3f ms): a disturbed run\n",
			spread, median(ph.calibMS))
	}

	st := &stamp{
		Workload: cfg.workload.name, Commit: commit(), Date: time.Now().UTC().Format(time.RFC3339),
		Seed: cfg.seed, NProc: nproc, GOMAXPROCS: procs, GoVersion: runtime.Version(),
		Clients: cfg.workload.clients, Ops: ph.attempted, TimedS: ph.timedS, Traced: cfg.traced,
	}
	res := &result{Correct: correct, Attempted: ph.attempted, Failed: ph.failed,
		Metrics: map[string]metricValue{}}
	values := map[string]float64{}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		inst.layers(tr, values)
		harnessLayers(ph, values)
		values["harness.unattributed_pct"] = math.Abs(median(ph.plainMS)-attributedMS(tr.spans, inst.opSpan())) /
			median(ph.plainMS) * 100
		if cfg.tracePath != "" {
			if err := writeSpans(cfg.tracePath, st, tr.spans); err != nil {
				return nil, nil, err
			}
		}
	} else {
		ok := ph.attempted - ph.failed
		values["setup_s"] = median(setupS)
		values["op_p50_ms"] = median(ph.plainMS)
		values["op_p10_ms"] = percentile(ph.plainMS, 0.1)
		values["cpu_s_per_op"] = perOp(ph.cost.cpuS, ph.plainOps)
		values["allocs_per_op"] = perOp(float64(ph.cost.mallocs), ph.plainOps)
		values["alloc_mb_per_op"] = perOp(float64(ph.cost.allocBytes)/1e6, ph.plainOps)
		values["live_heap_mb"] = heapMB
		values["modeled_s_per_op"] = perOp(ph.modeledS, ok)
		values["transfer_mb_per_op"] = perOp(float64(ph.transferFloats)*4/1e6, ok)
		values["peak_resident_mb"] = float64(ph.peakBytes) / 1e6
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a layer this run took no sample of
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		delete(values, d.name)
	}
	for name := range values { // left over: measured under a name the lists do not have
		return nil, nil, fmt.Errorf("metric %q is measured but not declared", name)
	}
	return st, res, nil
}

// harnessLayers fills the harness.* and runtime.* metrics of a traced run
// from its plain blocks.
func harnessLayers(ph *phase, m map[string]float64) {
	plain, traced := median(ph.plainMS), median(ph.tracedMS)
	m["harness.block_spread_pct"] = spreadPct(ph.blockMedians)
	m["harness.calib_ms"] = median(ph.calibMS)
	m["harness.ops_per_s"] = float64(len(ph.plainMS)) / ph.timedS
	m["harness.op_p90_ms"] = percentile(ph.plainMS, 0.9)
	m["harness.timed_s"] = ph.timedS
	m["harness.trace_overhead_pct"] = (traced - plain) / plain * 100
	m["runtime.gc_cycles_per_op"] = perOp(float64(ph.cost.gcCycles), ph.plainOps)
	m["runtime.gc_pause_ms_per_op"] = perOp(float64(ph.cost.gcPauseNS)/1e6, ph.plainOps)
	m["runtime.gc_cpu_share"] = ph.cost.gcCPUS / ph.cost.cpuS
}

// writeSpans writes the traced run's spans, once, after the run.
func writeSpans(path string, st *stamp, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Stamp *stamp `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "compile_cold, exec_sequential, exec_pipelined or serve_mixed")
	seed := fs.Int64("seed", 1, "seed of the inputs")
	seconds := fs.Int("seconds", 20, "length of the timed phase on the commit that sized the workloads; sets the op count")
	traced := fs.Int("trace", 0, "1 = the traced run: per-layer metrics, spans written under .bench_build/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, traced: *traced == 1, setups: setupRepeats}
	for _, w := range workloads {
		if w.name == *name {
			cfg.workload = w
		}
	}
	if cfg.workload.name == "" || *traced < 0 || *traced > 1 {
		fmt.Fprintf(stderr, "bench: unknown -workload %q or -trace %d\n", *name, *traced)
		fs.Usage()
		return 2
	}
	cfg.opsPerClient = int(math.Round(float64(*seconds) * cfg.workload.opsPerSecond))
	if n := cfg.opsPerClient * cfg.workload.clients; n < minTimedOps {
		fmt.Fprintf(stderr, "bench: -seconds %d gives %d timed ops; %s needs %d (-seconds %.0f)\n", *seconds, n,
			cfg.workload.name, minTimedOps, math.Ceil(minTimedOps/cfg.workload.opsPerSecond/float64(cfg.workload.clients)))
		return 2
	}
	if cfg.traced {
		// Half the ops, in alternating plain and traced blocks: a quarter
		// of the end-to-end run's ops each.
		cfg.opsPerClient /= 2
		cfg.setups = 1
		cfg.tracePath = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", cfg.workload.name, cfg.seed))
	}
	st, res, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(struct {
		Stamp *stamp `json:"stamp"`
	}{st}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
