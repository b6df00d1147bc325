package core

import (
	"context"
	"fmt"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Service is the concurrency-safe front door to the framework: one shared
// engine plus a memoizing plan cache, safe to call from any number of
// goroutines. Compile memoizes by canonical compilation key (graph
// fingerprint + device + planner config) with single-flight semantics, so
// a fleet of workers compiling the same template does the compile work
// once; each miss compiles on a clone of the caller's graph under a
// forked observer, so the caller's graph is never mutated and concurrent
// traces never interleave mid-span.
type Service struct {
	eng    *Engine
	cache  *compiler.Cache[*Compiled]
	pcache *compiler.Cache[*PartitionedCompiled]
}

// NewService returns a service assembled from functional options:
//
//	svc := core.NewService(
//		core.WithDevice(gpu.TeslaC870()),
//		core.WithPipeline(0),
//		core.WithCache(64),
//		core.WithObserver(o),
//	)
//
// Zero options give a usable service for the zero-value device spec; in
// practice WithDevice is the one option every caller passes.
func NewService(opts ...Option) *Service {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Service{
		eng:    NewEngine(cfg),
		cache:  compiler.NewCache[*Compiled](cfg.CacheSize, cfg.Obs),
		pcache: compiler.NewCache[*PartitionedCompiled](cfg.CacheSize, cfg.Obs),
	}
}

// Engine returns the underlying engine (for Capacity, PassNames, or an
// uncached Compile).
func (s *Service) Engine() *Engine { return s.eng }

// CacheStats reports the plan cache's hit/miss/eviction counters.
func (s *Service) CacheStats() compiler.CacheStats { return s.cache.Stats() }

// CacheKey returns the canonical key Compile memoizes g under.
func (s *Service) CacheKey(g *graph.Graph) string {
	return compiler.Key(g.Fingerprint(), s.eng.cfg.Device, s.configString())
}

// configString encodes every Config field that changes the compiled plan.
// Capacity is resolved first so an explicit budget equal to the device
// default shares the default's cache entries.
func (s *Service) configString() string {
	c := s.eng.cfg
	// Pipeline changes the compiled plan (it adds the prefetch pass);
	// PipelineWorkers only changes execution, so it stays out of the key.
	// Schedule never changes the plan either, but compiled artifacts
	// carry bound operators, so each schedule gets its own entry — that
	// is also what keeps per-schedule wall-time comparisons honest.
	sched := c.Schedule
	if sched == "" {
		sched = "static"
	}
	return fmt.Sprintf("planner=%s,capacity=%d,pbmax=%d,splitmax=%d,overlap=%t,autotune=%t,pipeline=%t,sched=%s",
		c.Planner, s.eng.Capacity(), c.PBMaxConflicts, c.SplitMaxParts, c.Overlap, c.AutoTuneSplit, c.Pipeline, sched)
}

// Compile returns the compiled artifact for g, from the cache when an
// identical compilation has already run (hit=true; no compile passes
// execute). The caller's graph is never mutated: misses compile a clone.
// Concurrent calls with the same key share one compile; a cancelled ctx
// aborts this caller's compile between passes (a concurrent waiter on
// the same in-flight key receives the compile's own result).
func (s *Service) Compile(ctx context.Context, g *graph.Graph) (c *Compiled, hit bool, err error) {
	o := s.eng.cfg.Obs
	key := s.CacheKey(g)
	c, hit, err = s.cache.GetOrCompute(key, func() (*Compiled, error) {
		child := o.Fork()
		cc, cerr := s.eng.compileObs(ctx, child, g.Clone())
		o.Join(child)
		return cc, cerr
	})
	if err != nil {
		return nil, hit, err
	}
	if hit {
		o.T().MarkWall("cache-hit", "compile", map[string]string{"key": key[:12]})
	}
	return c, hit, nil
}

// PartitionCacheKey returns the canonical key CompilePartitioned
// memoizes g under for the given pool: the graph fingerprint, every pool
// member's full spec (order matters — part p runs on specs[p]), and the
// planner configuration.
func (s *Service) PartitionCacheKey(g *graph.Graph, specs []gpu.Spec) string {
	cfg := fmt.Sprintf("%s,partition=%+v", s.configString(), specs)
	return compiler.Key(g.Fingerprint(), s.eng.cfg.Device, cfg)
}

// CompilePartitioned returns the partitioned artifact for g over the
// device pool specs, from its own cache when an identical compilation
// already ran (single-flight, like Compile). The caller's graph is never
// mutated: misses compile a clone.
func (s *Service) CompilePartitioned(ctx context.Context, g *graph.Graph, specs []gpu.Spec) (pc *PartitionedCompiled, hit bool, err error) {
	o := s.eng.cfg.Obs
	key := s.PartitionCacheKey(g, specs)
	pc, hit, err = s.pcache.GetOrCompute(key, func() (*PartitionedCompiled, error) {
		child := o.Fork()
		cc, cerr := s.eng.compilePartitionedObs(ctx, child, g.Clone(), specs)
		o.Join(child)
		return cc, cerr
	})
	if err != nil {
		return nil, hit, err
	}
	if hit {
		o.T().MarkWall("cache-hit", "compile", map[string]string{"key": key[:12]})
	}
	return pc, hit, nil
}

// scope is the one fork/sink scope every execution runs in: fn executes
// under a per-call forked observer, so concurrent executions of one
// cached plan never share trace state. The child observer's spans and
// instants are merged into sink as well as joined back into the service
// observer, so a caller holding per-request state (the serving pool's job
// traces) receives this execution's device timeline without re-parsing
// the shared trace. A nil sink just skips the merge; a sink with a nil
// service observer still receives spans through a standalone fork.
func (s *Service) scope(sink *obs.Tracer, fn func(child *obs.Observer)) {
	o := s.eng.cfg.Obs
	child := o.Fork()
	if child == nil && sink != nil {
		child = &obs.Observer{Trace: sink.Fork()}
	}
	fn(child)
	sink.Merge(child.T())
	o.Join(child)
}

// Run executes an already-compiled artifact on a fresh device under a
// per-call forked observer — the single front-door execution entry point.
// Every RunOptions combination is honored: Simulate selects accounting
// mode, Resilient the resilient driver, Resident the pinned buffer set
// (installed on the per-call artifact copy, so concurrent executions of
// one cached plan can carry different residency), and Sink receives the
// execution's device-phase spans (H2D/compute/D2H on the simulated clock)
// and recovery instants in addition to the service's own trace. Safe for
// concurrent use — a serving layer compiles once via Compile and fans
// executions out here.
func (s *Service) Run(ctx context.Context, c *Compiled, opt RunOptions) (rep *exec.Report, err error) {
	s.scope(opt.Sink, func(child *obs.Observer) {
		cc := *c
		cc.Obs = child
		rep, err = cc.Run(ctx, opt)
	})
	return rep, err
}

// RunPartitioned executes a partitioned artifact on devs (fresh devices
// from pc.NewDevices when nil) in the same scope as Run — its partitioned
// counterpart. See PartitionedCompiled.Run for option semantics.
func (s *Service) RunPartitioned(ctx context.Context, pc *PartitionedCompiled, devs []*gpu.Device, opt RunOptions) (rep *exec.PartitionReport, err error) {
	s.scope(opt.Sink, func(child *obs.Observer) {
		cc := *pc
		cc.Obs = child
		if devs == nil {
			devs = cc.NewDevices()
		}
		rep, err = cc.RunOn(ctx, devs, opt)
	})
	return rep, err
}

// Execute runs an already-compiled artifact with real data: Run with
// inputs only.
func (s *Service) Execute(ctx context.Context, c *Compiled, in exec.Inputs) (*exec.Report, error) {
	return s.Run(ctx, c, RunOptions{Inputs: in})
}

// Simulate replays an already-compiled artifact in accounting mode: Run
// with the Simulate flag.
func (s *Service) Simulate(ctx context.Context, c *Compiled) (*exec.Report, error) {
	return s.Run(ctx, c, RunOptions{Simulate: true})
}

// CompileAndSimulate compiles g (or hits the cache) and replays the plan
// in accounting mode. Safe for concurrent use.
func (s *Service) CompileAndSimulate(ctx context.Context, g *graph.Graph) (*exec.Report, error) {
	c, _, err := s.Compile(ctx, g)
	if err != nil {
		return nil, err
	}
	return s.Simulate(ctx, c)
}

// CompileAndExecute compiles g (or hits the cache) and runs the plan with
// real data. Safe for concurrent use: execution state lives in the
// executor, not the shared compiled artifact.
func (s *Service) CompileAndExecute(ctx context.Context, g *graph.Graph, in exec.Inputs) (*exec.Report, error) {
	c, _, err := s.Compile(ctx, g)
	if err != nil {
		return nil, err
	}
	return s.Execute(ctx, c, in)
}

// Observer returns the service's shared observer (nil when observability
// is off).
func (s *Service) Observer() *obs.Observer { return s.eng.cfg.Obs }
