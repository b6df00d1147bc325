package gpu

import (
	"fmt"
	"sync"
)

// Device is one simulated GPU: an allocator enforcing memory capacity and
// a clock advanced by the spec's performance model. The device tracks the
// transfer/compute statistics the paper's tables report.
//
// The device is safe for concurrent use. Every fallible operation splits
// into a fault gate (Gate) and a clock/statistics charge (AccountH2D,
// AccountD2H, AccountLaunch, AccountSync); the classic entry points
// (CopyToDevice, Launch, ...) compose the two. The pipelined executor
// calls the gates concurrently while steps execute and replays the
// charges in plan order afterwards, so its statistics are bit-identical
// to sequential execution regardless of goroutine interleaving.
type Device struct {
	Spec Spec

	mu    sync.Mutex
	alloc *Allocator
	clock float64
	stats Stats
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
	// defragmentation (Device.Compact): live buffers slid down by modeled
	// on-device copies when external fragmentation blocks an allocation
	// the planner's byte accounting proved feasible. Zero on runs that
	// never fragment past the planner's slack.
	Compactions     int
	CompactedFloats int64
	CompactTime     float64
	// WallTime, when non-zero, is the overlapped-execution makespan set
	// by an executor running with asynchronous transfers; otherwise the
	// engines serialize and TotalTime is the sum of the buckets.
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

// New returns a device with empty memory and zeroed clock.
func New(spec Spec) *Device {
	return &Device{Spec: spec, alloc: NewAllocator(spec.MemoryBytes)}
}

// Recover reinitializes the device after a failure: memory is emptied and
// the lost flag cleared, but the simulated clock and accumulated
// statistics are preserved so that the cost of recovery stays visible in
// Stats. This models a driver-level device reset mid-application.
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

// Gate runs the fault gate for one operation kind without charging any
// simulated time: the failure half of an operation. The pipelined
// executor gates while steps run concurrently and replays the charges in
// plan order afterwards.
func (d *Device) Gate(kind FaultKind) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faultLocked(kind)
}

// ChargeRecovery advances the simulated clock by t seconds of recovery
// work (retry backoff, reset latency), accounted separately in Stats.
func (d *Device) ChargeRecovery(t float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock += t
	d.stats.RecoveryTime += t
}

// Clock returns the simulated time in seconds.
func (d *Device) Clock() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clock
}

// Stats returns a copy of the accumulated statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
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

// Compact defragments the device arena: every live allocation slides
// toward offset zero (Allocator.Compact) and the clock is charged the
// modeled cost of the on-device copies — each moved byte is read once
// and written once at the device memory bandwidth. Returns the moves so
// the caller can redirect its buffer handles.
func (d *Device) Compact() []Move {
	moves := d.Allocator().Compact()
	var bytes int64
	for _, m := range moves {
		bytes += m.Len
	}
	t := 2 * float64(bytes) / d.Spec.DeviceBandwidth
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock += t
	d.stats.Compactions++
	d.stats.CompactedFloats += bytes / 4
	d.stats.CompactTime += t
	return moves
}

// H2DDuration returns the modeled host→device DMA duration.
func (d *Device) H2DDuration(floats int64) float64 {
	return d.Spec.TransferLatency + float64(floats*4)/d.Spec.H2DBandwidth
}

// D2HDuration returns the modeled device→host DMA duration.
func (d *Device) D2HDuration(floats int64) float64 {
	return d.Spec.TransferLatency + float64(floats*4)/d.Spec.D2HBandwidth
}

// AccountH2D charges one host→device DMA of the given float count to the
// clock and statistics, returning the modeled duration.
func (d *Device) AccountH2D(floats int64) float64 {
	t := d.H2DDuration(floats)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock += t
	d.stats.TransferTime += t
	d.stats.H2DFloats += floats
	d.stats.H2DCalls++
	return t
}

// AccountD2H charges one device→host DMA, returning the modeled duration.
func (d *Device) AccountD2H(floats int64) float64 {
	t := d.D2HDuration(floats)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock += t
	d.stats.TransferTime += t
	d.stats.D2HFloats += floats
	d.stats.D2HCalls++
	return t
}

// CopyToDevice accounts a host→device DMA of the given float count. A
// faulted transfer charges nothing: the retry (if any) pays in full.
func (d *Device) CopyToDevice(floats int64) error {
	if err := d.Gate(FaultH2D); err != nil {
		return err
	}
	d.AccountH2D(floats)
	return nil
}

// CopyToHost accounts a device→host DMA of the given float count.
func (d *Device) CopyToHost(floats int64) error {
	if err := d.Gate(FaultD2H); err != nil {
		return err
	}
	d.AccountD2H(floats)
	return nil
}

// AccountSync charges one host-GPU synchronization, returning its cost.
func (d *Device) AccountSync() float64 {
	t := d.Spec.SyncOverhead
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock += t
	d.stats.SyncTime += t
	d.stats.Syncs++
	return t
}

// SetWallTime records the overlapped makespan computed by an executor
// driving the DMA and compute engines concurrently.
func (d *Device) SetWallTime(t float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.WallTime = t
	d.clock = t
}

// KernelTime returns the modeled duration of a kernel producing the given
// number of output elements with the given FLOP count and total bytes
// touched in device memory: the maximum of the arithmetic, issue-floor,
// and memory-bandwidth bounds, plus launch overhead.
func (d *Device) KernelTime(flops, elements, bytes int64) float64 {
	arith := float64(flops) / d.Spec.GFLOPS
	issue := float64(elements) * d.Spec.CyclesPerElement / (float64(d.Spec.Cores) * d.Spec.ClockGHz * 1e9)
	mem := float64(bytes) / d.Spec.DeviceBandwidth
	t := arith
	if issue > t {
		t = issue
	}
	if mem > t {
		t = mem
	}
	return d.Spec.LaunchOverhead + t
}

// AccountLaunch charges one kernel execution, returning the modeled
// duration.
func (d *Device) AccountLaunch(flops, elements, bytes int64) float64 {
	t := d.KernelTime(flops, elements, bytes)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock += t
	d.stats.ComputeTime += t
	d.stats.KernelLaunches++
	return t
}

// Launch accounts one kernel execution.
func (d *Device) Launch(flops, elements, bytes int64) error {
	if err := d.Gate(FaultLaunch); err != nil {
		return err
	}
	d.AccountLaunch(flops, elements, bytes)
	return nil
}
