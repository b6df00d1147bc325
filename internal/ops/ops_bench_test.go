package ops

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/tensor"
)

// benchConv runs the 2-D convolution kernel over an h×w image — the
// operator whose row loop the schedule shards.
func benchConv(b *testing.B, h, w, k int) {
	rng := rand.New(rand.NewSource(1))
	img := randTensor(rng, h, w)
	ker := randTensor(rng, k, k)
	op := NewConv2D(k, k)
	os, err := op.OutShape([]graph.Shape{
		{Rows: h, Cols: w}, {Rows: k, Cols: k}})
	if err != nil {
		b.Fatal(err)
	}
	out := tensor.New(os.Rows, os.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op.Run([]*tensor.Tensor{img, ker}, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConv2DRowSharding contrasts shapes below and above the
// MinRowsPerWorker threshold: small images must not pay goroutine
// spawn/join overhead, large ones shard across the host's cores.
func BenchmarkConv2DRowSharding(b *testing.B) {
	for _, c := range []struct {
		name    string
		h, w, k int
	}{
		{"small-32x32", 32, 32, 5},      // below threshold: runs inline
		{"medium-128x128", 128, 128, 5}, // around 2 workers' worth of rows
		{"large-512x512", 512, 512, 5},  // shards across all cores
	} {
		b.Run(c.name, func(b *testing.B) { benchConv(b, c.h, c.w, c.k) })
	}
}

// BenchmarkConv2DSameRegion runs the zero-padded 5×5 convolution the CNN
// templates are made of over regions of a 160×120 image, as split parts
// do: an interior band (no tap clipped), the top band (kernel rows
// clipped) and the whole image (every border).
func BenchmarkConv2DSameRegion(b *testing.B) {
	const h, w, k = 160, 120, 5
	rng := rand.New(rand.NewSource(1))
	root, ker := randTensor(rng, h, w), randTensor(rng, k, k)
	op := NewConv2DSame(k, k)
	full := []graph.Region{{Rows: h, Cols: w}, {Rows: k, Cols: k}}
	for _, c := range []struct {
		name string
		out  graph.Region
	}{
		{"interior-32rows", graph.Region{Row: 64, Rows: 32, Cols: w}},
		{"top-32rows", graph.Region{Rows: 32, Cols: w}},
		{"whole-image", full[0]},
	} {
		b.Run(c.name, func(b *testing.B) {
			inReg, _ := op.InputRegion(0, c.out, full)
			in := []*tensor.Tensor{root.View(inReg.Row, inReg.Col, inReg.Rows, inReg.Cols), ker}
			inRegs := []graph.Region{inReg, full[1]}
			out := tensor.New(c.out.Rows, c.out.Cols)
			b.ReportAllocs()
			b.SetBytes(c.out.Size() * 4)
			for i := 0; i < b.N; i++ {
				if err := op.RunRegion(in, inRegs, out, c.out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDefaultScheduleThreshold pins the default sharding policy: row
// counts below MinRowsPerWorker run inline on the calling goroutine,
// larger counts cover the range exactly once across shards.
func TestDefaultScheduleThreshold(t *testing.T) {
	min := loadbalance.MinRowsPerWorker
	for _, rows := range []int{1, min - 1, min, 4 * min, 1000} {
		var sh schedulable // unbound: falls back to loadbalance.Default
		var calls, covered int64
		sh.rows(rows, nil, func(r0, r1 int) {
			atomic.AddInt64(&calls, 1)
			atomic.AddInt64(&covered, int64(r1-r0))
		})
		if covered != int64(rows) {
			t.Fatalf("rows=%d: covered %d rows", rows, covered)
		}
		if rows < 2*min && calls != 1 {
			t.Fatalf("rows=%d: %d shards, want inline execution", rows, calls)
		}
	}
}

// benchPowerLawCSR builds an n×n CSR whose row degrees follow
// degree(i) ∝ (i+1)^-skew — hub rows clustered at low indices, exactly
// the distribution that overloads the static schedule's first chunk.
func benchPowerLawCSR(b *testing.B, seed int64, n, avgNNZ int, skew float64) *tensor.CSR {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	weights := make([]float64, n)
	var wsum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -skew)
		wsum += weights[i]
	}
	total := n * avgNNZ
	rowPtr := make([]int32, n+1)
	var colIdx []int32
	for r := 0; r < n; r++ {
		deg := int(float64(total) * weights[r] / wsum)
		if deg > n {
			deg = n
		}
		if deg < 1 {
			deg = 1
		}
		cols := rng.Perm(n)[:deg]
		sort.Ints(cols)
		for _, c := range cols {
			colIdx = append(colIdx, int32(c))
		}
		rowPtr[r+1] = int32(len(colIdx))
	}
	val := make([]float32, len(colIdx))
	for i := range val {
		val[i] = rng.Float32()
	}
	s, err := tensor.NewCSR(n, n, rowPtr, colIdx, val)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSpMVSchedules compares the three load-balancing schedules on
// the SpMV kernel over a power-law (skewed) and a uniform row
// distribution. The merge-path and work-stealing schedules should beat
// the static even split on the skewed matrix — the static split's first
// chunk holds the hub rows and serializes the launch — and match it on
// the uniform one.
func BenchmarkSpMVSchedules(b *testing.B) {
	const n, avgNNZ = 2048, 48
	dists := []struct {
		name string
		s    *tensor.CSR
	}{
		{"powerlaw", benchPowerLawCSR(b, 7, n, avgNNZ, 0.85)},
		{"uniform", benchPowerLawCSR(b, 7, n, avgNNZ, 0)},
	}
	for _, d := range dists {
		a := d.s.Dense()
		x := tensor.New(n, 1)
		for i := 0; i < n; i++ {
			x.Set(i, 0, 1/float32(n))
		}
		out := tensor.New(n, 1)
		for _, name := range loadbalance.Names() {
			sched, err := loadbalance.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			op := NewSpMV(d.s).BindSchedule(sched)
			b.Run(d.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := op.Run([]*tensor.Tensor{a, x}, out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
