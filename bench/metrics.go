package main

import "strings"

// metricDef is one metric this program prints. BENCHMARK.json at the
// repository root declares the same names and units; smoke_test.go holds
// the two lists together.
type metricDef struct{ name, unit string }

// endToEnd are printed by a run without tracing, the same ten on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p10_ms", "ms"},
	{"cpu_s_per_op", "s"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
	{"modeled_s_per_op", "sim_s"}, // simulated seconds: exact, not a host time
	{"transfer_mb_per_op", "MB"},
	{"peak_resident_mb", "MB"},
}

// perLayer are printed by the traced run. Every traced run prints all of
// them; a layer the workload does not call reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	// compile_cold trace: one span name per public call, each with its
	// median self time and self allocations.
	for _, layer := range []string{
		"templates.build", "graph.fingerprint", "graph.clone",
		"compiler.schedule_bind", "split.apply", "graph.validate",
		"sched.heuristic", "sched.residency", "sched.verify", "core.compile_other",
		"core.cache_hit", "compiler.partition", "pb.solve", "codegen.cuda",
	} {
		add("ms", layer+"_ms")
		add("count", layer+"_allocs")
	}
	add("count", "graph.nodes_after_split", "sched.plan_steps")
	// exec_* trace.
	for _, v := range []variant{accounting, resilient, matSeq, matPipe} {
		add("ms", string(v)+"_ms")
	}
	add("ratio", "exec.resilient_over_plain", "exec.pipe_over_seq")
	add("ms", "ops.kernel_ms", "exec.pipe.dma_busy_ms", "exec.pipe.compute_busy_ms", "exec.pipe.span_ms")
	add("%", "exec.pipe.engines_busy_pct")
	add("ms", "sched.stepdeps_ms", "sched.prefetch_ms")
	add("ns", "gpu.alloc_pair_ns")
	add("count", "exec.steps", "gpu.h2d_calls", "gpu.d2h_calls", "gpu.kernel_launches")
	// serve_mixed trace.
	for _, class := range sessionOrder {
		add("ms", "serve.request_p50_ms."+class, "serve.request_p90_ms."+class,
			"serve.queue_wait_ms."+class, "serve.exec_ms."+class, "serve.admit_ms."+class)
	}
	add("ms", "serve.exec_ms."+largeClass, "serve.http_overhead_ms")
	add("ratio", "serve.cache_hit_share", "serve.coalesced_share")
	add("count", "serve.jobs_total", "serve.failed")
	add("ms", "serve.stats_ms")
	add("%", "obs.trace_overhead_pct")
	// Every traced run.
	add("count", "runtime.gc_cycles_per_op")
	add("ms", "runtime.gc_pause_ms_per_op")
	add("ratio", "runtime.gc_cpu_share")
	add("%", "harness.block_spread_pct")
	add("ms", "harness.calib_ms")
	add("1/s", "harness.ops_per_s")
	add("ms", "harness.op_p90_ms")
	add("s", "harness.timed_s")
	add("%", "harness.trace_overhead_pct", "harness.unattributed_pct")
	return defs
}

// better is the direction BENCHMARK.json states for a metric: higher for
// the few where more is better, lower for costs and sizes.
func better(name string) string {
	switch {
	case name == "exec.pipe.engines_busy_pct", name == "harness.ops_per_s",
		strings.HasSuffix(name, "_share") && !strings.HasPrefix(name, "runtime."):
		return "higher"
	}
	return "lower"
}
