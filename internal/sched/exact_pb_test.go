package sched_test

import (
	"testing"

	"repro/internal/pb"
	"repro/internal/sched"
	"repro/internal/templates"
)

// TestPBNoWorseThanExactSearch cross-checks the PB optimum of the Fig. 3
// template against the exhaustive order search, which uses the Belady
// transfer policy: the PB formulation also chooses transfers, so it may
// match the search's optimum but never lose to it.
func TestPBNoWorseThanExactSearch(t *testing.T) {
	g, err := templates.EdgeDetectFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int64{4, 5, 6} {
		h, err := sched.Heuristic(g, capacity)
		if err != nil {
			t.Fatal(err)
		}
		f, err := pb.Formulate(g, capacity)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Minimize(h.TotalTransferFloats(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != pb.Sat {
			t.Fatalf("capacity %d: status %v", capacity, res.Status)
		}
		exact, _, err := sched.ExactSearch{Capacity: capacity}.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost > exact.TotalTransferFloats() {
			t.Fatalf("capacity %d: PB %d worse than exact order search %d",
				capacity, res.Cost, exact.TotalTransferFloats())
		}
	}
}
