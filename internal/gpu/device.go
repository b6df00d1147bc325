package gpu

import (
	"fmt"
	"sync"
)

// Device is one simulated GPU: an allocator enforcing memory capacity
// and a fault gate in front of every fallible operation. It keeps no
// clock: modeled time is a fold over the plan (sched.Clock), charged by
// whoever steps it, with the duration formulas on the Spec.
//
// The device is safe for concurrent use: the pipelined executor gates
// and allocates from several goroutines while the clock is stepped in
// plan order on one.
type Device struct {
	Spec Spec

	mu    sync.Mutex
	alloc *Allocator
	inj   *Injector
	lost  bool
}

// Stats accumulates the measurements the paper reports: transfer volumes
// (in floats and bytes), call counts, and the simulated time split into
// transfer, compute, and host-sync, mirroring Fig. 2's breakdown.
type Stats struct {
	H2DFloats, D2HFloats int64
	H2DCalls, D2HCalls   int
	KernelLaunches       int
	Syncs                int
	TransferTime         float64 // seconds of simulated DMA time
	ComputeTime          float64 // seconds of simulated kernel time
	SyncTime             float64 // seconds of host-GPU synchronization
	// RecoveryTime is simulated time spent in failure recovery (retry
	// backoff charged by a resilient executor); zero on healthy runs.
	RecoveryTime float64
	// Compactions/CompactedFloats/CompactTime account arena
	// defragmentation (Allocator.Compact): live buffers slid down by modeled
	// on-device copies when external fragmentation blocks an allocation
	// the planner's byte accounting proved feasible. Zero on runs that
	// never fragment past the planner's slack.
	Compactions     int
	CompactedFloats int64
	CompactTime     float64
	// WallTime, when non-zero, is the two-engine makespan of a clock
	// stepped with asynchronous transfers; otherwise the engines
	// serialize and TotalTime is the sum of the buckets.
	WallTime float64
}

// TotalFloats returns the total floats moved across the host↔GPU link,
// the objective the paper's PB formulation minimizes.
func (s Stats) TotalFloats() int64 { return s.H2DFloats + s.D2HFloats }

// Add accumulates o's counters and time buckets into s — aggregation
// across the devices of a partitioned (gang) execution. WallTime takes
// the max, not the sum: overlapped makespans on different devices run
// concurrently, and summing them would double-charge the joined clock.
func (s *Stats) Add(o Stats) {
	s.H2DFloats += o.H2DFloats
	s.D2HFloats += o.D2HFloats
	s.H2DCalls += o.H2DCalls
	s.D2HCalls += o.D2HCalls
	s.KernelLaunches += o.KernelLaunches
	s.Syncs += o.Syncs
	s.TransferTime += o.TransferTime
	s.ComputeTime += o.ComputeTime
	s.SyncTime += o.SyncTime
	s.RecoveryTime += o.RecoveryTime
	s.Compactions += o.Compactions
	s.CompactedFloats += o.CompactedFloats
	s.CompactTime += o.CompactTime
	if o.WallTime > s.WallTime {
		s.WallTime = o.WallTime
	}
}

// TotalTime returns the simulated execution time.
func (s Stats) TotalTime() float64 {
	if s.WallTime > 0 {
		return s.WallTime
	}
	return s.TransferTime + s.ComputeTime + s.SyncTime + s.RecoveryTime + s.CompactTime
}

// TransferShare returns the fraction of simulated time spent in DMA,
// the quantity plotted in Fig. 2.
func (s Stats) TransferShare() float64 {
	t := s.TotalTime()
	if t == 0 {
		return 0
	}
	return s.TransferTime / t
}

// New returns a device with empty memory.
func New(spec Spec) *Device {
	return &Device{Spec: spec, alloc: NewAllocator(spec.MemoryBytes)}
}

// Recover reinitializes the device after a failure: memory is emptied and
// the lost flag cleared. This models a driver-level device reset
// mid-application; the modeled clock, which the device does not keep,
// runs on.
func (d *Device) Recover() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.alloc = NewAllocator(d.Spec.MemoryBytes)
	d.lost = false
}

// SetInjector attaches a fault injector; nil disables injection.
func (d *Device) SetInjector(in *Injector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inj = in
}

// faultLocked gates every fallible operation: a lost device fails
// everything, and the injector may fail this call. A device-loss fault
// latches. Callers hold d.mu, which also serializes the injector's
// internal state under concurrent execution.
func (d *Device) faultLocked(kind FaultKind) error {
	if d.lost {
		return fmt.Errorf("device %s: %w", d.Spec.Name, ErrDeviceLost)
	}
	if fe := d.inj.check(kind, d.Spec.Name); fe != nil {
		if fe.Kind == FaultDeviceLost {
			d.lost = true
		}
		return fe
	}
	return nil
}

// Gate runs the fault gate for one operation kind: the failure half of
// an operation, whose modeled time the caller's clock charges once the
// gate passes.
func (d *Device) Gate(kind FaultKind) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faultLocked(kind)
}

// Allocator exposes the device allocator (read-only uses in reports).
func (d *Device) Allocator() *Allocator {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alloc
}

// Malloc reserves n bytes of device memory.
func (d *Device) Malloc(n int64) (int64, error) {
	if err := d.Gate(FaultMalloc); err != nil {
		return 0, err
	}
	off, err := d.Allocator().Alloc(n)
	if err != nil {
		return 0, fmt.Errorf("device %s: %w", d.Spec.Name, err)
	}
	return off, nil
}

// FreeMem releases a device allocation.
func (d *Device) FreeMem(off int64) error { return d.Allocator().Free(off) }
