package gpu

import (
	"errors"
	"testing"
)

func TestInjectorScriptedFault(t *testing.T) {
	d := New(Custom("t", 1<<20))
	inj := NewInjector(1).FailAt(FaultH2D, 1, Transient)
	d.SetInjector(inj)
	if err := d.CopyToDevice(100); err != nil {
		t.Fatalf("call 0 must succeed: %v", err)
	}
	err := d.CopyToDevice(100)
	if err == nil {
		t.Fatal("call 1 must fail")
	}
	if !IsTransient(err) {
		t.Fatalf("fault must be transient: %v", err)
	}
	if IsDeviceLost(err) || errors.Is(err, ErrOOM) {
		t.Fatalf("misclassified: %v", err)
	}
	// A faulted transfer charges nothing.
	if got := d.Stats().H2DCalls; got != 1 {
		t.Fatalf("H2DCalls = %d, want 1", got)
	}
	// The scripted fault fired once: the retry succeeds.
	if err := d.CopyToDevice(100); err != nil {
		t.Fatalf("retry must succeed: %v", err)
	}
	faults := inj.Faults()
	if len(faults) != 1 || faults[0].Kind != FaultH2D || faults[0].Call != 1 {
		t.Fatalf("fault log = %+v", faults)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	run := func(seed int64) []InjectedFault {
		d := New(Custom("t", 1<<20))
		inj := NewInjector(seed).SetRate(FaultH2D, 0.3, Transient)
		d.SetInjector(inj)
		for i := 0; i < 100; i++ {
			d.CopyToDevice(10)
		}
		return inj.Faults()
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("rate 0.3 over 100 calls must fire at least once")
	}
	if len(a) != len(b) {
		t.Fatalf("not deterministic: %d vs %d faults", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := run(8); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical fault sequences")
		}
	}
}

func TestDeviceLostLatches(t *testing.T) {
	d := New(Custom("t", 1<<20))
	d.SetInjector(NewInjector(1).FailAt(FaultDeviceLost, 2, Persistent))
	if _, err := d.Malloc(400); err != nil { // op 0
		t.Fatal(err)
	}
	if err := d.CopyToDevice(100); err != nil { // op 1
		t.Fatal(err)
	}
	err := d.Launch(1000, 100, 400) // op 2: loss fires
	if !IsDeviceLost(err) {
		t.Fatalf("want device lost, got %v", err)
	}
	if !d.lost {
		t.Fatal("device must be marked lost")
	}
	// Everything fails until recovery, without consuming injector ops.
	if _, err := d.Malloc(4); !IsDeviceLost(err) {
		t.Fatalf("lost device Malloc: %v", err)
	}
	if err := d.CopyToHost(1); !IsDeviceLost(err) {
		t.Fatalf("lost device D2H: %v", err)
	}
	clock, stats := d.Clock(), d.Stats()
	d.Recover()
	if d.lost {
		t.Fatal("Recover must clear the lost flag")
	}
	if d.Clock() != clock {
		t.Fatal("Recover must preserve the clock")
	}
	if d.Stats() != stats {
		t.Fatal("Recover must preserve statistics")
	}
	if got := d.Allocator().UsedBytes(); got != 0 {
		t.Fatalf("Recover must empty device memory, used=%d", got)
	}
	if _, err := d.Malloc(400); err != nil {
		t.Fatalf("recovered device must allocate: %v", err)
	}
}

func TestOOMClassification(t *testing.T) {
	d := New(Custom("t", 1024))
	if _, err := d.Malloc(2048); !errors.Is(err, ErrOOM) {
		t.Fatalf("real allocation failure must be OOM: %v", err)
	}
	d2 := New(Custom("t", 1<<20))
	d2.SetInjector(NewInjector(1).FailAt(FaultMalloc, 0, Persistent))
	_, err := d2.Malloc(4)
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("injected persistent malloc fault must classify as OOM: %v", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Class != Persistent {
		t.Fatalf("want persistent FaultError, got %v", err)
	}
	if IsTransient(err) {
		t.Fatal("persistent fault must not classify as transient")
	}
}

func TestChargeRecovery(t *testing.T) {
	d := New(Custom("t", 1<<20))
	d.CopyToDevice(1 << 20)
	base := d.Stats().TotalTime()
	d.ChargeRecovery(0.5)
	s := d.Stats()
	if s.RecoveryTime != 0.5 {
		t.Fatalf("RecoveryTime = %v", s.RecoveryTime)
	}
	if got := s.TotalTime(); got != base+0.5 {
		t.Fatalf("TotalTime = %v, want %v", got, base+0.5)
	}
	if d.Clock() != base+0.5 {
		t.Fatalf("clock = %v", d.Clock())
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	d := New(Custom("t", 1<<20))
	for i := 0; i < 10; i++ {
		if err := d.CopyToDevice(10); err != nil {
			t.Fatal(err)
		}
		if err := d.Launch(100, 10, 40); err != nil {
			t.Fatal(err)
		}
	}
}
