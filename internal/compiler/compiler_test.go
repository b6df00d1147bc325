package compiler

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/templates"
)

func testSpec(name string) gpu.Spec { return gpu.Custom(name, 1<<20) }

// fakePass records its execution into a shared log and optionally fails.
type fakePass struct {
	name string
	log  *[]string
	err  error
}

func (p fakePass) Name() string { return p.name }
func (p fakePass) Run(c *Compilation, sp *obs.Span) error {
	*p.log = append(*p.log, p.name)
	return p.err
}

func TestPipelineRunsPassesInOrder(t *testing.T) {
	var log []string
	pl := NewPipeline(
		fakePass{name: "a", log: &log},
		fakePass{name: "b", log: &log},
		fakePass{name: "c", log: &log},
	)
	if got := pl.Passes(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("Passes() = %v", got)
	}
	if err := pl.Run(context.Background(), &Compilation{}); err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 || log[0] != "a" || log[1] != "b" || log[2] != "c" {
		t.Fatalf("execution order = %v", log)
	}
}

func TestPipelineStopsAndWrapsErrors(t *testing.T) {
	var log []string
	boom := errors.New("boom")
	o := obs.New()
	pl := NewPipeline(
		fakePass{name: "ok", log: &log},
		fakePass{name: "bad", log: &log, err: boom},
		fakePass{name: "never", log: &log},
	)
	err := pl.Run(context.Background(), &Compilation{Obs: o})
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost the cause: %v", err)
	}
	if want := "compiler: bad: boom"; err.Error() != want {
		t.Fatalf("error = %q, want %q", err.Error(), want)
	}
	if len(log) != 2 {
		t.Fatalf("passes after the failure still ran: %v", log)
	}
	if v := o.M().Counter("compiler.pass.errors", "pass", "bad").Value(); v != 1 {
		t.Fatalf("error counter = %d", v)
	}
	if v := o.M().Counter("compiler.pass.runs", "pass", "ok").Value(); v != 1 {
		t.Fatalf("run counter = %d", v)
	}
}

// A failing pass must leave the trace balanced: its span (and the spans
// of every pass before it) closed, nothing leaked, and the exported
// Chrome trace structurally valid.
func TestPipelineFailureLeavesBalancedTrace(t *testing.T) {
	var log []string
	o := obs.New()
	outer := o.T().Begin("compile", "compile")
	pl := NewPipeline(
		fakePass{name: "ok", log: &log},
		fakePass{name: "bad", log: &log, err: errors.New("boom")},
	)
	if err := pl.Run(context.Background(), &Compilation{Obs: o}); err == nil {
		t.Fatal("expected error")
	}
	outer.End()
	if n := o.T().OpenSpans(); n != 0 {
		t.Fatalf("%d spans leaked on the error path", n)
	}
	var buf bytes.Buffer
	if err := o.T().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("trace after failing pass is invalid: %v", err)
	}
	for _, name := range []string{"ok", "bad"} {
		found := false
		for _, s := range o.T().Spans() {
			if s.Name == name && s.End >= s.Start {
				found = true
			}
		}
		if !found {
			t.Fatalf("span %q missing or unclosed", name)
		}
	}
}

func TestCacheHitMissAndStats(t *testing.T) {
	o := obs.New()
	c := NewCache[int](4, o)
	calls := 0
	get := func(key string, v int) (int, bool) {
		t.Helper()
		got, hit, err := c.GetOrCompute(key, func() (int, error) { calls++; return v, nil })
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("got %d, want %d", got, v)
		}
		return got, hit
	}
	if _, hit := get("a", 1); hit {
		t.Fatal("first lookup was a hit")
	}
	if _, hit := get("a", 1); !hit {
		t.Fatal("second lookup missed")
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if v := o.M().Counter("compiler.cache.hits").Value(); v != 1 {
		t.Fatalf("hits counter = %d", v)
	}
	if v := o.M().Counter("compiler.cache.misses").Value(); v != 1 {
		t.Fatalf("misses counter = %d", v)
	}
}

func TestCacheErrorsAreNotCached(t *testing.T) {
	c := NewCache[int](4, nil)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := c.GetOrCompute("k", func() (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry after error: v=%d hit=%v err=%v", v, hit, err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache[int](2, nil)
	put := func(k string, v int) {
		if _, _, err := c.GetOrCompute(k, func() (int, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 1)
	put("b", 2)
	put("a", 1) // touch a: b becomes LRU
	put("c", 3) // evicts b
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if _, hit, _ := c.GetOrCompute("a", func() (int, error) { return 1, nil }); !hit {
		t.Fatal("a was evicted instead of b")
	}
	if _, hit, _ := c.GetOrCompute("b", func() (int, error) { return 2, nil }); hit {
		t.Fatal("b survived eviction")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache[int](4, nil)
	var computes int32
	release := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", func() (int, error) {
				atomic.AddInt32(&computes, 1)
				<-release // hold every other goroutine in the wait path
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := atomic.LoadInt32(&computes); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("worker %d got %d", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.InflightWaits != workers-1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeyDiscriminates(t *testing.T) {
	dev := testSpec("d1")
	dev2 := testSpec("d2")
	dev2.MemoryBytes *= 2
	base := Key("fp", dev, "cfg")
	if Key("fp", dev, "cfg") != base {
		t.Fatal("key not deterministic")
	}
	for name, other := range map[string]string{
		"fingerprint": Key("fp2", dev, "cfg"),
		"device":      Key("fp", dev2, "cfg"),
		"config":      Key("fp", dev, "cfg2"),
	} {
		if other == base {
			t.Fatalf("key ignores %s", name)
		}
	}
	if strings.ContainsAny(base, " \n") || len(base) != 64 {
		t.Fatalf("key %q is not a hex digest", base)
	}
}

// When every partition candidate fails, the error names each one with its
// own reason, not only the first.
func TestPartitionPassNamesEveryFailedCandidate(t *testing.T) {
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 64, ImageW: 48, KernelSize: 5, Orientations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := split.Apply(g, split.Options{Capacity: 9000}); err != nil {
		t.Fatal(err)
	}
	// Cards far smaller than any operator: every candidate's per-part
	// schedule is infeasible.
	c := &Compilation{Graph: g, PoolSpecs: []gpu.Spec{gpu.Custom("a", 4096), gpu.Custom("b", 4096)}}
	err = PartitionPass{}.Run(c, nil)
	if err == nil {
		t.Fatal("partitioning onto 4 KiB cards succeeded")
	}
	for _, name := range []string{"stripe", "chain", "heft"} {
		if !strings.Contains(err.Error(), name+": ") {
			t.Errorf("error does not name candidate %s: %v", name, err)
		}
	}
	if !errors.Is(err, sched.ErrInfeasible) {
		t.Errorf("error does not wrap sched.ErrInfeasible: %v", err)
	}
}
