// Fault injection for the simulated device. Real GPU runtimes fail in
// ways the paper's feasibility story must survive: transient DMA/ECC
// errors, allocation failures under fragmentation, kernel faults, and
// whole-device loss (driver reset, hot unplug). The Injector reproduces
// those failure modes deterministically — scripted by call index or drawn
// from a seeded probability per operation — so resilient executors can be
// tested byte-for-byte reproducibly.
package gpu

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// FaultKind identifies the device operation a fault strikes.
type FaultKind int

// Fault kinds. FaultDeviceLost is special: it may fire on any fallible
// operation and leaves the device unusable until Recover.
const (
	FaultMalloc FaultKind = iota
	FaultH2D
	FaultD2H
	FaultLaunch
	FaultDeviceLost
)

func (k FaultKind) String() string {
	switch k {
	case FaultMalloc:
		return "malloc"
	case FaultH2D:
		return "h2d"
	case FaultD2H:
		return "d2h"
	case FaultLaunch:
		return "launch"
	case FaultDeviceLost:
		return "device-lost"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultClass distinguishes faults that succeed on retry from those that
// persist until the executor changes strategy.
type FaultClass int

// Fault classes.
const (
	Transient FaultClass = iota
	Persistent
)

func (c FaultClass) String() string {
	if c == Persistent {
		return "persistent"
	}
	return "transient"
}

// ErrOOM marks device allocation failures (real out-of-memory or
// fragmentation, and injected persistent malloc faults). Detect with
// errors.Is(err, ErrOOM).
var ErrOOM = errors.New("gpu: out of device memory")

// ErrDeviceLost marks a lost device: every operation fails with it until
// Recover. Detect with errors.Is(err, ErrDeviceLost) or IsDeviceLost.
var ErrDeviceLost = errors.New("gpu: device lost")

// FaultError is an injected fault surfaced by a device operation.
type FaultError struct {
	Kind   FaultKind  // operation the fault struck (FaultDeviceLost for loss)
	Class  FaultClass // retryable or persistent
	Device string
	Call   int // per-kind call index at which the fault fired
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("gpu: injected %s %s fault on device %s (call %d)",
		e.Class, e.Kind, e.Device, e.Call)
}

// Unwrap maps injected faults onto the sentinel errors executors classify
// by: device loss onto ErrDeviceLost, persistent malloc faults onto ErrOOM
// (they are indistinguishable from real allocation failure to a runtime).
func (e *FaultError) Unwrap() error {
	switch {
	case e.Kind == FaultDeviceLost:
		return ErrDeviceLost
	case e.Kind == FaultMalloc && e.Class == Persistent:
		return ErrOOM
	}
	return nil
}

// IsTransient reports whether err is an injected fault expected to clear
// on retry.
func IsTransient(err error) bool {
	var fe *FaultError
	return errors.As(err, &fe) && fe.Class == Transient && fe.Kind != FaultDeviceLost
}

// IsDeviceLost reports whether err indicates the device was lost.
func IsDeviceLost(err error) bool { return errors.Is(err, ErrDeviceLost) }

// InjectedFault records one fault the injector fired.
type InjectedFault struct {
	Kind  FaultKind
	Class FaultClass
	Call  int // per-kind call index (global op index for device loss)
}

type faultRate struct {
	p     float64
	class FaultClass
}

type scriptKey struct {
	kind FaultKind
	call int
}

// Injector decides, per device operation, whether to fail it. All
// decisions derive from the seed and the call sequence, so a given
// (seed, plan) pair always produces the same fault history. A nil
// *Injector injects nothing and costs one nil check per operation.
//
// The injector is internally locked, so one injector may be shared by
// several devices (a core.Service configured WithFaults serving
// concurrent executions); the fault history then depends on the
// cross-device interleaving, but each individual decision stays valid.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rates  map[FaultKind]faultRate
	script map[scriptKey]FaultClass
	calls  map[FaultKind]int // per-kind fallible-call counters
	ops    int               // global fallible-op counter (device-loss index)
	log    []InjectedFault
}

// NewInjector returns an injector seeded for deterministic replay.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		rates:  make(map[FaultKind]faultRate),
		script: make(map[scriptKey]FaultClass),
		calls:  make(map[FaultKind]int),
	}
}

// SetRate makes each operation of the given kind fail independently with
// probability p and the given class. For FaultDeviceLost the probability
// applies to every fallible operation. Returns the injector for chaining.
func (in *Injector) SetRate(kind FaultKind, p float64, class FaultClass) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rates[kind] = faultRate{p: p, class: class}
	return in
}

// FailAt scripts a one-shot fault: the call-th operation of the given
// kind (0-based, counting only that kind) fails with the given class.
// For FaultDeviceLost, call indexes the global sequence of fallible
// device operations of any kind. Returns the injector for chaining.
func (in *Injector) FailAt(kind FaultKind, call int, class FaultClass) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.script[scriptKey{kind, call}] = class
	return in
}

// Faults returns the log of every fault fired so far.
func (in *Injector) Faults() []InjectedFault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]InjectedFault(nil), in.log...)
}

// Ops returns the total number of fallible device operations attempted.
func (in *Injector) Ops() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// fire logs and builds the fault error.
func (in *Injector) fire(kind FaultKind, class FaultClass, call int, dev string) *FaultError {
	in.log = append(in.log, InjectedFault{Kind: kind, Class: class, Call: call})
	return &FaultError{Kind: kind, Class: class, Call: call, Device: dev}
}

// check is consulted by the device before executing a fallible operation
// of the given kind. It returns a fault to inject, or nil. Device-loss
// faults take precedence: they are evaluated against the global op index
// on every call.
func (in *Injector) check(kind FaultKind, dev string) *FaultError {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	op := in.ops
	in.ops++
	call := in.calls[kind]
	in.calls[kind]++

	if _, ok := in.script[scriptKey{FaultDeviceLost, op}]; ok {
		return in.fire(FaultDeviceLost, Persistent, op, dev)
	}
	if r, ok := in.rates[FaultDeviceLost]; ok && r.p > 0 && in.rng.Float64() < r.p {
		return in.fire(FaultDeviceLost, Persistent, op, dev)
	}
	if class, ok := in.script[scriptKey{kind, call}]; ok {
		return in.fire(kind, class, call, dev)
	}
	if r, ok := in.rates[kind]; ok && r.p > 0 && in.rng.Float64() < r.p {
		return in.fire(kind, r.class, call, dev)
	}
	return nil
}
