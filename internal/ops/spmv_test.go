package ops

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/tensor"
)

// randCSR builds a rows×cols CSR with the given per-row nonzero counts
// (clamped to cols) and seeded random values.
func randCSR(t testing.TB, seed int64, cols int, rowNNZ []int) *tensor.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := len(rowNNZ)
	rowPtr := make([]int32, rows+1)
	var colIdx []int32
	var val []float32
	for r, deg := range rowNNZ {
		if deg > cols {
			deg = cols
		}
		cs := rng.Perm(cols)[:deg]
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && cs[j-1] > cs[j]; j-- {
				cs[j-1], cs[j] = cs[j], cs[j-1]
			}
		}
		for _, c := range cs {
			colIdx = append(colIdx, int32(c))
			val = append(val, rng.Float32()*2-1)
		}
		rowPtr[r+1] = int32(len(colIdx))
	}
	s, err := tensor.NewCSR(rows, cols, rowPtr, colIdx, val)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// spmvRef is a scalar reference: dense mat-vec over the CSR's dense form.
func spmvRef(s *tensor.CSR, a, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(s.Rows, 1)
	for r := 0; r < s.Rows; r++ {
		var acc float32
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			c := s.ColIdx[j]
			acc += a.At(r, int(c)) * x.At(int(c), 0)
		}
		out.Set(r, 0, acc)
	}
	return out
}

// adversarialStructures returns CSR inputs that stress the schedules:
// empty rows, a single giant row, power-law skew, and a uniform case.
func adversarialStructures(t testing.TB) map[string]*tensor.CSR {
	const n = 200
	uniform := make([]int, n)
	empties := make([]int, n)
	giant := make([]int, n)
	skew := make([]int, n)
	for i := 0; i < n; i++ {
		uniform[i] = 8
		if i%7 == 0 {
			empties[i] = 5
		} // ~86% of rows empty
		skew[i] = n / (i + 1) // power-law-ish hub rows first
	}
	giant[n/2] = n // one row holds every column, all others empty
	return map[string]*tensor.CSR{
		"uniform":    randCSR(t, 1, n, uniform),
		"empty-rows": randCSR(t, 2, n, empties),
		"giant-row":  randCSR(t, 3, n, giant),
		"powerlaw":   randCSR(t, 4, n, skew),
	}
}

// TestSpMVSchedulesBitIdentical is the op-level half of the schedule
// equivalence property: all three schedules produce bit-identical SpMV
// results on adversarial sparsity structures, and match the scalar
// reference.
func TestSpMVSchedulesBitIdentical(t *testing.T) {
	for name, s := range adversarialStructures(t) {
		a := s.Dense()
		rng := rand.New(rand.NewSource(9))
		x := tensor.New(s.Cols, 1)
		for i := 0; i < s.Cols; i++ {
			x.Set(i, 0, rng.Float32())
		}
		ref := spmvRef(s, a, x)
		for _, schedName := range loadbalance.Names() {
			sched, err := loadbalance.ByName(schedName)
			if err != nil {
				t.Fatal(err)
			}
			// Force real parallelism even on small adversarial inputs.
			switch v := sched.(type) {
			case loadbalance.Static:
				v.MinRows = 1
				sched = v
			case loadbalance.WorkSteal:
				v.Chunk = 8
				sched = v
			}
			op := NewSpMV(s).BindSchedule(sched)
			out := tensor.New(s.Rows, 1)
			if err := op.Run([]*tensor.Tensor{a, x}, out); err != nil {
				t.Fatalf("%s/%s: %v", name, schedName, err)
			}
			for r := 0; r < s.Rows; r++ {
				if out.At(r, 0) != ref.At(r, 0) {
					t.Fatalf("%s/%s: row %d: %v != ref %v", name, schedName, r, out.At(r, 0), ref.At(r, 0))
				}
			}
		}
	}
}

// TestSpMVRegionOffset checks a split part computes the right structure
// rows: running rows [60, 140) must reproduce that slice of the whole.
func TestSpMVRegionOffset(t *testing.T) {
	s := adversarialStructures(t)["powerlaw"]
	a := s.Dense()
	x := tensor.New(s.Cols, 1)
	for i := 0; i < s.Cols; i++ {
		x.Set(i, 0, float32(i%13)*0.25)
	}
	ref := spmvRef(s, a, x)
	op := NewSpMV(s)
	const r0, r1 = 60, 140
	apart := a.View(r0, 0, r1, a.Cols())
	out := tensor.New(r1-r0, 1)
	err := op.RunRegion(
		[]*tensor.Tensor{apart, x},
		[]graph.Region{{Row: r0, Col: 0, Rows: r1 - r0, Cols: s.Cols}, {Rows: s.Cols, Cols: 1}},
		out,
		graph.Region{Row: r0, Col: 0, Rows: r1 - r0, Cols: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < r1-r0; r++ {
		if out.At(r, 0) != ref.At(r0+r, 0) {
			t.Fatalf("row %d: %v != ref %v", r0+r, out.At(r, 0), ref.At(r0+r, 0))
		}
	}
}

func TestSpMVShapeValidation(t *testing.T) {
	s := randCSR(t, 5, 10, []int{2, 2, 2})
	op := NewSpMV(s)
	if _, err := op.OutShape([]graph.Shape{{Rows: 3, Cols: 10}, {Rows: 10, Cols: 1}}); err != nil {
		t.Fatalf("valid shapes rejected: %v", err)
	}
	if _, err := op.OutShape([]graph.Shape{{Rows: 4, Cols: 10}, {Rows: 10, Cols: 1}}); err == nil {
		t.Fatal("matrix shape mismatch accepted")
	}
	if _, err := op.OutShape([]graph.Shape{{Rows: 3, Cols: 10}, {Rows: 9, Cols: 1}}); err == nil {
		t.Fatal("vector shape mismatch accepted")
	}
	// ValidateRegions: part regions must span all columns and align rows.
	if err := op.ValidateRegions(
		[]graph.Region{{Row: 1, Col: 0, Rows: 2, Cols: 10}, {Rows: 10, Cols: 1}},
		graph.Region{Row: 1, Col: 0, Rows: 2, Cols: 1}); err != nil {
		t.Fatalf("valid part rejected: %v", err)
	}
	if err := op.ValidateRegions(
		[]graph.Region{{Row: 0, Col: 0, Rows: 2, Cols: 10}, {Rows: 10, Cols: 1}},
		graph.Region{Row: 1, Col: 0, Rows: 2, Cols: 1}); err == nil {
		t.Fatal("misaligned matrix part accepted")
	}
}

// TestSpMVParamsDistinguishStructures is the fingerprint regression test
// for sparse ops (satellite: the plan cache must distinguish sparsity
// structures, not just shapes).
func TestSpMVParamsDistinguishStructures(t *testing.T) {
	s1 := randCSR(t, 21, 10, []int{2, 2, 2})
	s2 := randCSR(t, 22, 10, []int{2, 2, 2}) // same shape+nnz, different pattern
	if string(NewSpMV(s1).AppendParams(nil)) == string(NewSpMV(s2).AppendParams(nil)) {
		t.Fatal("SpMV params collide for different sparsity structures")
	}
}

// TestBindScheduleDoesNotMutate checks binding returns a copy and leaves
// kind/params untouched — schedules must never leak into fingerprints.
func TestBindScheduleDoesNotMutate(t *testing.T) {
	s := randCSR(t, 31, 16, []int{4, 4, 4, 4})
	binders := []graph.ScheduleBinder{
		NewSpMV(s), NewConv2D(3, 3), NewConv2DSame(3, 3),
		NewSubsample(2), NewBiasAdd(),
		NewTanh().(graph.ScheduleBinder), NewAddN(2).(graph.ScheduleBinder),
	}
	for _, op := range binders {
		if op.BoundSchedule() != nil {
			t.Fatalf("%s: fresh op has a bound schedule", op.Kind())
		}
		bound := op.BindSchedule(loadbalance.MergePath{})
		if op.BoundSchedule() != nil {
			t.Fatalf("%s: BindSchedule mutated the receiver", op.Kind())
		}
		bb, ok := bound.(graph.ScheduleBinder)
		if !ok || bb.BoundSchedule() == nil {
			t.Fatalf("%s: bound copy lost its schedule", op.Kind())
		}
		if bound.Kind() != op.Kind() {
			t.Fatalf("%s: binding changed kind to %s", op.Kind(), bound.Kind())
		}
		p1, ok1 := op.(graph.OpParams)
		p2, ok2 := bound.(graph.OpParams)
		if ok1 != ok2 || (ok1 && string(p1.AppendParams(nil)) != string(p2.AppendParams(nil))) {
			t.Fatalf("%s: binding changed params", op.Kind())
		}
	}
}
