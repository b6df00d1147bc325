package gpu

import (
	"errors"
	"testing"
)

func TestInjectorScriptedFault(t *testing.T) {
	d := New(Custom("t", 1<<20))
	inj := NewInjector(1).FailAt(FaultH2D, 1, Transient)
	d.SetInjector(inj)
	if err := d.Gate(FaultH2D); err != nil {
		t.Fatalf("call 0 must succeed: %v", err)
	}
	err := d.Gate(FaultH2D)
	if err == nil {
		t.Fatal("call 1 must fail")
	}
	if !IsTransient(err) {
		t.Fatalf("fault must be transient: %v", err)
	}
	if IsDeviceLost(err) || errors.Is(err, ErrOOM) {
		t.Fatalf("misclassified: %v", err)
	}
	// The scripted fault fired once: the retry succeeds.
	if err := d.Gate(FaultH2D); err != nil {
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
			d.Gate(FaultH2D)
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
	if err := d.Gate(FaultH2D); err != nil { // op 1
		t.Fatal(err)
	}
	err := d.Gate(FaultLaunch) // op 2: loss fires
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
	if err := d.Gate(FaultD2H); !IsDeviceLost(err) {
		t.Fatalf("lost device D2H: %v", err)
	}
	d.Recover()
	if d.lost {
		t.Fatal("Recover must clear the lost flag")
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

// Recovery time is its own bucket: it counts toward TotalTime when the
// engines serialize, is summed across devices by Add, and gives way to
// the overlapped makespan when one is set.
func TestChargeRecovery(t *testing.T) {
	spec := Custom("t", 1<<20)
	s := Stats{TransferTime: spec.H2DDuration(1 << 20)}
	base := s.TotalTime()
	s.RecoveryTime = 0.5
	if got := s.TotalTime(); got != base+0.5 {
		t.Fatalf("TotalTime = %v, want %v", got, base+0.5)
	}
	var sum Stats
	sum.Add(s)
	sum.Add(Stats{RecoveryTime: 0.25})
	if sum.RecoveryTime != 0.75 || sum.TotalTime() != base+0.75 {
		t.Fatalf("Add: RecoveryTime = %v, TotalTime = %v", sum.RecoveryTime, sum.TotalTime())
	}
	s.WallTime = base + 0.1
	if got := s.TotalTime(); got != s.WallTime {
		t.Fatalf("overlapped TotalTime = %v, want WallTime %v", got, s.WallTime)
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	d := New(Custom("t", 1<<20))
	for i := 0; i < 10; i++ {
		for _, k := range []FaultKind{FaultH2D, FaultLaunch, FaultD2H} {
			if err := d.Gate(k); err != nil {
				t.Fatal(err)
			}
		}
	}
}
