// Package gpu simulates the GPU platforms the paper evaluates on. The
// simulator enforces the properties that drive the framework's two
// problems — a fixed device-memory capacity (with real first-fit
// fragmentation) and a narrow host↔device link — and its Spec carries the
// calibrated performance model the modeled clock (sched.Clock) advances
// by, while kernels themselves are executed for real on the host by the
// plan executor.
package gpu

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec describes a GPU platform: the capacity parameters the paper's
// planner consumes plus the constants of the timing model.
type Spec struct {
	Name string

	// MemoryBytes is the physical device memory. The planner is handed
	// PlannerCapacity() which reserves fragmentation headroom, matching
	// the paper's note that Total_GPU_Memory is set below the physical
	// amount.
	MemoryBytes int64
	// Headroom is the fraction of memory exposed to the planner (0 → 0.95).
	Headroom float64

	Cores    int
	ClockGHz float64

	// H2DBandwidth / D2HBandwidth are host↔device link speeds in bytes/s
	// (PCIe-class, ~1.5 GB/s on the paper's systems).
	H2DBandwidth float64
	D2HBandwidth float64
	// TransferLatency is the fixed per-DMA-call cost in seconds (driver +
	// setup), the reason many small copies are slower than one large one.
	TransferLatency float64

	// DeviceBandwidth is internal memory bandwidth in bytes/s (the paper
	// cites >64 GB/s).
	DeviceBandwidth float64
	// GFLOPS is effective arithmetic throughput in FLOP/s.
	GFLOPS float64
	// LaunchOverhead is the fixed per-kernel-launch cost in seconds.
	LaunchOverhead float64
	// CyclesPerElement is the per-output-element issue floor: a kernel
	// takes at least elements*CyclesPerElement/(Cores*Clock) seconds,
	// which models why tiny-kernel convolutions do not reach peak FLOPs.
	CyclesPerElement float64
	// SyncOverhead is the fixed host-GPU synchronization cost charged at
	// each offload-unit boundary, one per operator (paper §3.1).
	SyncOverhead float64
	// AsyncTransfer reports whether the device can overlap DMA with
	// kernel execution. The paper's C870 and 8800 GTX could not (§3.3.2:
	// "We did not overlap computation and communication in our
	// experiments since the GPUs that we used did not support this
	// capability"); the Tesla C1060 profile models the next generation
	// that could.
	AsyncTransfer bool
	// HostMemoryBytes is the host's main memory (8 GB on both paper
	// systems); executions whose transfer volume exceeds it are flagged
	// as thrashing, reproducing the erratic entries of Table 2.
	HostMemoryBytes int64
}

// PlannerCapacity returns the device memory the planner may use, in
// floats (the paper's unit), after fragmentation headroom.
func (s Spec) PlannerCapacity() int64 {
	h := s.Headroom
	if h == 0 {
		h = 0.95
	}
	return int64(float64(s.MemoryBytes) * h / 4)
}

// H2DDuration returns the modeled host→device DMA duration.
func (s Spec) H2DDuration(floats int64) float64 {
	return s.TransferLatency + float64(floats*4)/s.H2DBandwidth
}

// D2HDuration returns the modeled device→host DMA duration.
func (s Spec) D2HDuration(floats int64) float64 {
	return s.TransferLatency + float64(floats*4)/s.D2HBandwidth
}

// KernelTime returns the modeled duration of a kernel producing the given
// number of output elements with the given FLOP count and total bytes
// touched in device memory: the maximum of the arithmetic, issue-floor,
// and memory-bandwidth bounds, plus launch overhead.
func (s Spec) KernelTime(flops, elements, bytes int64) float64 {
	arith := float64(flops) / s.GFLOPS
	issue := float64(elements) * s.CyclesPerElement / (float64(s.Cores) * s.ClockGHz * 1e9)
	mem := float64(bytes) / s.DeviceBandwidth
	t := arith
	if issue > t {
		t = issue
	}
	if mem > t {
		t = mem
	}
	return s.LaunchOverhead + t
}

// CompactDuration returns the modeled cost of defragmenting the arena by
// moving the given bytes: each is read once and written once at the
// device memory bandwidth.
func (s Spec) CompactDuration(bytes int64) float64 {
	return 2 * float64(bytes) / s.DeviceBandwidth
}

func (s Spec) String() string {
	return fmt.Sprintf("%s (%d MB, %d cores @ %.2f GHz)",
		s.Name, s.MemoryBytes>>20, s.Cores, s.ClockGHz)
}

// TeslaC870 models the NVIDIA Tesla C870 GPU computing card of the
// paper's first evaluation system: 128 cores at 1.35 GHz with 1.5 GB of
// device memory.
func TeslaC870() Spec {
	return Spec{
		Name:             "Tesla C870",
		MemoryBytes:      1536 << 20,
		Cores:            128,
		ClockGHz:         1.35,
		H2DBandwidth:     1.0e9,
		D2HBandwidth:     0.95e9,
		TransferLatency:  60e-6,
		DeviceBandwidth:  64e9,
		GFLOPS:           25e9,
		LaunchOverhead:   25e-6,
		CyclesPerElement: 100,
		SyncOverhead:     20e-6,
		HostMemoryBytes:  8 << 30,
	}
}

// GeForce8800GTX models the NVIDIA GeForce 8800 GTX graphics card of the
// paper's second system: identical cores/clock to the C870 but only
// 768 MB of device memory.
func GeForce8800GTX() Spec {
	return Spec{
		Name:             "GeForce 8800 GTX",
		MemoryBytes:      768 << 20,
		Cores:            128,
		ClockGHz:         1.35,
		H2DBandwidth:     1.0e9,
		D2HBandwidth:     0.95e9,
		TransferLatency:  60e-6,
		DeviceBandwidth:  64e9,
		GFLOPS:           25e9,
		LaunchOverhead:   25e-6,
		CyclesPerElement: 100,
		SyncOverhead:     20e-6,
		HostMemoryBytes:  8 << 30,
	}
}

// TeslaC1060 models the next-generation Tesla (240 cores, 4 GB) whose
// compute capability supports asynchronous transfer/compute overlap — the
// extension the paper describes but could not evaluate on its hardware.
func TeslaC1060() Spec {
	s := TeslaC870()
	s.Name = "Tesla C1060"
	s.MemoryBytes = 4096 << 20
	s.Cores = 240
	s.ClockGHz = 1.30
	s.GFLOPS = 45e9
	s.AsyncTransfer = true
	return s
}

// Custom returns a spec with the given memory but otherwise C870-class
// constants; used for tests and the retargeting example.
func Custom(name string, memoryBytes int64) Spec {
	s := TeslaC870()
	s.Name = name
	s.MemoryBytes = memoryBytes
	return s
}

// named lists the cards ParseSpec accepts by their short names.
var named = []struct {
	name string
	spec func() Spec
}{
	{"c870", TeslaC870},
	{"8800", GeForce8800GTX},
	{"c1060", TeslaC1060},
}

// ParseSpec resolves a device name as every command takes it: c870,
// 8800 or c1060 for the named cards, or mem=<bytes> for a C870-class
// card with that much memory, named after the token itself.
func ParseSpec(s string) (Spec, error) {
	for _, n := range named {
		if s == n.name {
			return n.spec(), nil
		}
	}
	if v, ok := strings.CutPrefix(s, "mem="); ok {
		mem, err := strconv.ParseInt(v, 10, 64)
		if err != nil || mem <= 0 {
			return Spec{}, fmt.Errorf("device %q: mem=<bytes> wants a positive byte count", s)
		}
		return Custom(s, mem), nil
	}
	names := make([]string, len(named))
	for i, n := range named {
		names[i] = n.name
	}
	return Spec{}, fmt.Errorf("unknown device %q (want %s, or mem=<bytes>)", s, strings.Join(names, ", "))
}
