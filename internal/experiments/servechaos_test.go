package experiments

import "testing"

// One round of the chaos harness is the fault-tolerance acceptance test:
// ServeChaos returns an error whenever any invariant breaks (a lost job,
// a clean execution whose stats diverge from the fault-free reference,
// unbounded modeled-time inflation, or a device that fails to quarantine
// or recover on cue), so a passing run IS the assertion.
func TestServeChaosInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale: three scenarios of the eight paper workloads")
	}
	res, err := ServeChaos(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 3 {
		t.Fatalf("scenarios = %d, want 3", len(res.Scenarios))
	}
	for _, sc := range res.Scenarios {
		if sc.Lost != 0 || sc.Completed != sc.Jobs {
			t.Fatalf("%s: %d lost of %d", sc.Name, sc.Lost, sc.Jobs)
		}
		if sc.Clean > 0 && sc.StatIdentical == 0 {
			t.Fatalf("%s: no clean job verified against the reference", sc.Name)
		}
	}
}
