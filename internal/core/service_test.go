package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// A second compile of an identical template must be a cache hit that
// skips every compile pass: the split pass runs once, the hit counter
// ticks, and no second set of pass spans appears in the trace.
func TestServiceCacheHitSkipsPasses(t *testing.T) {
	o := obs.New()
	svc := NewService(WithConfig(Config{Device: gpu.Custom("svc", 1<<20), Capacity: 9000, Obs: o}))

	g1 := edgeGraph(t, 40, 32, 5)
	nodesBefore := len(g1.Nodes)
	c1, hit, err := svc.Compile(context.Background(), g1)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first compile reported a cache hit")
	}
	if len(g1.Nodes) != nodesBefore {
		t.Fatal("Service.Compile mutated the caller's graph")
	}

	c2, hit, err := svc.Compile(context.Background(), edgeGraph(t, 40, 32, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("identical template was not a cache hit")
	}
	if c2 != c1 {
		t.Fatal("cache hit returned a different artifact")
	}
	if v := o.M().Counter("compiler.cache.hits").Value(); v != 1 {
		t.Fatalf("cache hit counter = %d, want 1", v)
	}
	if v := o.M().Counter("compiler.pass.runs", "pass", "split").Value(); v != 1 {
		t.Fatalf("split pass ran %d times, want 1", v)
	}
	splitSpans := 0
	for _, s := range o.T().Spans() {
		if s.Name == "split" {
			splitSpans++
		}
	}
	if splitSpans != 1 {
		t.Fatalf("trace has %d split spans, want 1 (hit must not re-run passes)", splitSpans)
	}
	if n := o.T().OpenSpans(); n != 0 {
		t.Fatalf("%d spans left open", n)
	}
}

// A failing compile must leave the shared trace balanced and exportable —
// the regression for the hand-rolled span closing the pass manager
// replaced.
func TestCompileErrorLeavesBalancedTrace(t *testing.T) {
	o := obs.New()
	// Capacity of 3 floats: splitting can never fit any operator.
	eng := NewEngine(Config{Device: gpu.Custom("tiny", 4096), Capacity: 3, Obs: o})
	if _, err := eng.Compile(context.Background(), edgeGraph(t, 40, 32, 5)); err == nil {
		t.Fatal("expected a compile error at capacity 3")
	}
	if n := o.T().OpenSpans(); n != 0 {
		t.Fatalf("%d spans leaked on the compile error path", n)
	}
	var buf bytes.Buffer
	if err := o.T().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("trace after failed compile is invalid: %v", err)
	}
}

// Failed auto-tune candidates must be recorded, not swallowed: a trace
// instant and a metrics counter per discarded candidate.
func TestAutoTuneCandidateFailureIsRecorded(t *testing.T) {
	o := obs.New()
	// Capacity 20: the full-capacity candidate compiles (fig3-scale
	// graph), but capacity/4 = 5 floats is unsplittable.
	eng := NewEngine(Config{Device: gpu.Custom("at", 4096), Capacity: 20,
		AutoTuneSplit: true, Obs: o})
	if _, err := eng.Compile(context.Background(), edgeGraph(t, 4, 4, 2)); err != nil {
		t.Fatal(err)
	}
	failed := o.M().Counter("autotune_candidate_failed").Value()
	if failed == 0 {
		t.Skip("all reduced targets compiled; nothing to record")
	}
	instants := 0
	for _, in := range o.T().Instants() {
		if in.Name == "autotune:candidate-failed" {
			instants++
			if in.Args["error"] == "" || in.Args["target_floats"] == "" {
				t.Fatalf("candidate-failure instant missing args: %+v", in.Args)
			}
		}
	}
	if int64(instants) != failed {
		t.Fatalf("%d failure instants, %d counter increments", instants, failed)
	}
	if n := o.T().OpenSpans(); n != 0 {
		t.Fatalf("%d spans leaked", n)
	}
}

// The stress test the CI runs under -race: many goroutines compile and
// simulate a small template mix through one shared Service. Single-flight
// means the compile passes run at most once per distinct key, and every
// concurrent report must be bit-identical to a solo run.
func TestServiceConcurrentStress(t *testing.T) {
	type tmpl struct {
		name string
		dims [3]int
	}
	mix := []tmpl{
		{"edge-40", [3]int{40, 32, 5}},
		{"edge-64", [3]int{64, 48, 5}},
		{"edge-80", [3]int{80, 64, 7}},
	}
	cfg := Config{Device: gpu.Custom("stress", 1<<20), Capacity: 9000}

	// Solo baselines: fresh engine per template, no sharing.
	solo := make([]gpu.Stats, len(mix))
	for i, m := range mix {
		c, err := NewEngine(cfg).Compile(context.Background(), edgeGraph(t, m.dims[0], m.dims[1], m.dims[2]))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Simulate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = rep.Stats
	}

	o := obs.New()
	cfg.Obs = o
	svc := NewService(WithConfig(cfg))
	const workers = 24
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := mix[w%len(mix)]
			rep, err := svc.CompileAndSimulate(context.Background(), edgeGraph(t, m.dims[0], m.dims[1], m.dims[2]))
			if err != nil {
				errs <- fmt.Errorf("%s: %w", m.name, err)
				return
			}
			if rep.Stats != solo[w%len(mix)] {
				errs <- fmt.Errorf("%s: concurrent stats %+v != solo %+v",
					m.name, rep.Stats, solo[w%len(mix)])
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if v := o.M().Counter("compiler.pass.runs", "pass", "split").Value(); v > int64(len(mix)) {
		t.Fatalf("split pass ran %d times for %d distinct keys: single-flight broken", v, len(mix))
	}
	st := svc.CacheStats()
	if st.Misses > int64(len(mix)) {
		t.Fatalf("%d compiles for %d distinct keys", st.Misses, len(mix))
	}
	if st.Hits+st.Misses+st.InflightWaits != workers {
		t.Fatalf("lookup accounting off: %+v for %d workers", st, workers)
	}
	if n := o.T().OpenSpans(); n != 0 {
		t.Fatalf("%d spans left open after concurrent load", n)
	}
}

// CompileAndExecute through the service must produce the same outputs as
// a direct engine compile+execute.
func TestServiceCompileAndExecute(t *testing.T) {
	c, in, want, _ := buildEdge(t, 40, 32, 5)
	svc := NewService(WithDevice(c.Device))
	var reps [2]*exec.Report
	for i := range reps {
		rep, err := svc.CompileAndExecute(context.Background(), edgeGraph(t, 40, 32, 5), in)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	if st := svc.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
	for id, w := range want {
		for i, rep := range reps {
			if !rep.Outputs[id].AlmostEqual(w, 1e-3) {
				t.Fatalf("run %d: output differs by %v", i, rep.Outputs[id].MaxAbsDiff(w))
			}
		}
	}
}

// WithSchedule must surface in the pass pipeline, bind every schedulable
// operator in the compiled (cloned) graph, and leave the caller's graph
// untouched.
func TestServiceBindsScheduleAtCompile(t *testing.T) {
	svc := NewService(WithDevice(gpu.Custom("svc-sched", 1<<20)), WithSchedule("worksteal"))
	found := false
	for _, name := range svc.Engine().PassNames() {
		if name == "schedule-bind" {
			found = true
		}
	}
	if !found {
		t.Fatalf("schedule-bind pass missing from pipeline %v", svc.Engine().PassNames())
	}

	g := edgeGraph(t, 40, 32, 5)
	c, _, err := svc.Compile(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Graph.Nodes {
		sb, ok := n.Op.(graph.ScheduleBinder)
		if !ok {
			continue
		}
		if sb.BoundSchedule() == nil || sb.BoundSchedule().Name() != "worksteal" {
			t.Fatalf("compiled node %s not bound to worksteal (got %v)", n.Name, sb.BoundSchedule())
		}
	}
	for _, n := range g.Nodes {
		if sb, ok := n.Op.(graph.ScheduleBinder); ok && sb.BoundSchedule() != nil {
			t.Fatalf("caller's graph mutated: %s carries a bound schedule", n.Name)
		}
	}

	// And the bound compile must still execute.
	in := exec.Inputs{}
	for _, b := range c.Graph.InputBuffers() {
		sh := b.Shape()
		tn := tensor.New(sh.Rows, sh.Cols)
		tn.Fill(1)
		in[b.ID] = tn
	}
	if _, err := svc.Execute(context.Background(), c, in); err != nil {
		t.Fatal(err)
	}
}
