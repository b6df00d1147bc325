package experiments

import "testing"

// One round of the steady-state benchmark is its own acceptance test:
// ServeSteady returns an error when any headline invariant breaks — a
// failed job, per-job H2D reduction under 40%, a pinned p99 that fails
// to improve on unpinned, or a device ledger that does not return to
// exactly its pinned-set size after drain.
func TestServeSteadyInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale: two fleets of two rounds of the eight paper workloads")
	}
	res, err := ServeSteady(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pinned.Jobs != res.Unpinned.Jobs || res.Pinned.Jobs == 0 {
		t.Fatalf("measured job counts diverge: pinned %d, unpinned %d",
			res.Pinned.Jobs, res.Unpinned.Jobs)
	}
	if res.Pinned.PinHits == 0 || res.Pinned.PinnedBytes == 0 {
		t.Fatalf("pinned fleet never reused a pin: %+v", res.Pinned)
	}
	if res.Unpinned.PinnedBytes != 0 || res.Unpinned.PinHits != 0 {
		t.Fatalf("unpinned fleet has residency state: %+v", res.Unpinned)
	}
	if !res.LedgerClean {
		t.Fatal("ledger not clean after drain")
	}
}
