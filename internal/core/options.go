package core

import (
	"repro/internal/gpu"
	"repro/internal/obs"
)

// Option configures a Service (and the Engine inside it). Options replace
// the older pattern of filling a Config literal: they compose, they keep
// zero values meaningful, and new knobs never break existing callers.
type Option func(*Config)

// WithDevice targets the service at the given GPU.
func WithDevice(spec gpu.Spec) Option {
	return func(c *Config) { c.Device = spec }
}

// WithPlanner selects the scheduling strategy (HeuristicPlanner default).
func WithPlanner(p Planner) Option {
	return func(c *Config) { c.Planner = p }
}

// WithCapacity overrides the planner memory budget in floats (0 = the
// device's PlannerCapacity).
func WithCapacity(floats int64) Option {
	return func(c *Config) { c.Capacity = floats }
}

// WithPBMaxConflicts bounds each PB solver call (0 = unlimited).
func WithPBMaxConflicts(n int64) Option {
	return func(c *Config) { c.PBMaxConflicts = n }
}

// WithOverlap enables the asynchronous transfer/compute extension
// (§3.3.2) on devices that support it.
func WithOverlap() Option {
	return func(c *Config) { c.Overlap = true }
}

// WithPipeline routes materialized executions through the pipelined
// executor, with a compute pool of GOMAXPROCS workers.
func WithPipeline() Option {
	return func(c *Config) { c.Pipeline = true }
}

// WithCache bounds the service's compiled-plan cache to size entries
// (0 = compiler.DefaultCacheSize).
func WithCache(size int) Option {
	return func(c *Config) { c.CacheSize = size }
}

// WithObserver threads the observability layer through compilation and
// every execution the service runs.
func WithObserver(o *obs.Observer) Option {
	return func(c *Config) { c.Obs = o }
}

// WithFaults installs a fault injector on every device the service's
// executions create. The injector is internally locked, so one injector
// may serve concurrent executions.
func WithFaults(inj *gpu.Injector) Option {
	return func(c *Config) { c.Faults = inj }
}

// WithAutoTuneSplit enables concurrent split auto-tuning (heuristic
// planner only).
func WithAutoTuneSplit() Option {
	return func(c *Config) { c.AutoTuneSplit = true }
}

// WithSchedule selects the load-balancing schedule operator kernels
// shard their row loops with: "static" (even split, the default),
// "mergepath" (balanced by per-row work estimate), or "worksteal"
// (chunked self-scheduling). Outputs and modeled stats are identical
// under every schedule; only host wall time changes.
func WithSchedule(name string) Option {
	return func(c *Config) { c.Schedule = name }
}
