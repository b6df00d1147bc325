package ops

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/tensor"
)

// The naive* functions are the kernels as they stood before the row-axpy
// rewrite, kept verbatim (minus row sharding) as the oracle: the library
// kernels must reproduce them bit for bit — same float32 additions in the
// same order per element — not merely to a tolerance.

func naiveConv2D(kh, kw int, img, ker, out *tensor.Tensor) {
	for r := 0; r < out.Rows(); r++ {
		orow := out.Row(r)
		for col := 0; col < out.Cols(); col++ {
			var acc float32
			for kr := 0; kr < kh; kr++ {
				irow := img.Row(r + kr)
				krow := ker.Row(kr)
				for kc := 0; kc < kw; kc++ {
					acc += irow[col+kc] * krow[kc]
				}
			}
			orow[col] = acc
		}
	}
}

func naiveConv2DSame(kh, kw int, img, ker *tensor.Tensor, inReg graph.Region, out *tensor.Tensor, outReg graph.Region) {
	pt, pl := (kh-1)/2, (kw-1)/2
	for r := 0; r < out.Rows(); r++ {
		absR := outReg.Row + r
		orow := out.Row(r)
		for col := 0; col < out.Cols(); col++ {
			absC := outReg.Col + col
			var acc float32
			for kr := 0; kr < kh; kr++ {
				ir := absR - pt + kr - inReg.Row
				if ir < 0 || ir >= img.Rows() {
					continue
				}
				irow := img.Row(ir)
				krow := ker.Row(kr)
				for kc := 0; kc < kw; kc++ {
					ic := absC - pl + kc - inReg.Col
					if ic < 0 || ic >= img.Cols() {
						continue
					}
					acc += irow[ic] * krow[kc]
				}
			}
			orow[col] = acc
		}
	}
}

func naiveSepConv(k int, img, col, row *tensor.Tensor, inReg graph.Region, out *tensor.Tensor, outReg graph.Region) {
	p := (k - 1) / 2
	scratch := tensor.New(outReg.Rows, img.Cols())
	for r := 0; r < outReg.Rows; r++ {
		absR := outReg.Row + r
		srow := scratch.Row(r)
		for cc := 0; cc < img.Cols(); cc++ {
			var acc float32
			for kk := 0; kk < k; kk++ {
				ir := absR - p + kk - inReg.Row
				if ir < 0 || ir >= img.Rows() {
					continue
				}
				acc += img.Row(ir)[cc] * col.Row(kk)[0]
			}
			srow[cc] = acc
		}
	}
	rk := row.Row(0)
	for r := 0; r < outReg.Rows; r++ {
		srow := scratch.Row(r)
		orow := out.Row(r)
		for cc := 0; cc < out.Cols(); cc++ {
			absC := outReg.Col + cc
			var acc float32
			for kk := 0; kk < k; kk++ {
				ic := absC - p + kk - inReg.Col
				if ic < 0 || ic >= len(srow) {
					continue
				}
				acc += srow[ic] * rk[kk]
			}
			orow[cc] = acc
		}
	}
}

func naiveSubsample(k int, x, out *tensor.Tensor) {
	inv := 1 / float32(k*k)
	for r := 0; r < out.Rows(); r++ {
		orow := out.Row(r)
		for c := range orow {
			var acc float32
			for kr := 0; kr < k; kr++ {
				xrow := x.Row(r*k + kr)
				for kc := 0; kc < k; kc++ {
					acc += xrow[c*k+kc]
				}
			}
			orow[c] = acc * inv
		}
	}
}

func naiveElementwise(fn func([]float32) float32, in []*tensor.Tensor, out *tensor.Tensor) {
	buf := make([]float32, len(in))
	for r := 0; r < out.Rows(); r++ {
		orow := out.Row(r)
		rows := make([][]float32, len(in))
		for i, t := range in {
			rows[i] = t.Row(r)
		}
		for c := range orow {
			for i := range rows {
				buf[i] = rows[i][c]
			}
			orow[c] = fn(buf)
		}
	}
}

// bitsEqual is stricter than Tensor.Equal: NaN payloads and the sign of
// zero count.
func bitsEqual(a, b *tensor.Tensor) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for r := 0; r < a.Rows(); r++ {
		ar, br := a.Row(r), b.Row(r)
		for i := range ar {
			if math.Float32bits(ar[i]) != math.Float32bits(br[i]) {
				return false
			}
		}
	}
	return true
}

var nan32 = float32(math.NaN())

// embedded returns a rows×cols strided View into a larger backing tensor
// whose every element is fill; the backing is returned so tests can check
// a kernel wrote nothing outside the view.
func embedded(rng *rand.Rand, rows, cols int, fill float32) (view, backing *tensor.Tensor) {
	top, left := rng.Intn(3), rng.Intn(4)
	backing = tensor.New(top+rows+rng.Intn(3), left+cols+1+rng.Intn(4))
	backing.Fill(fill)
	return backing.View(top, left, rows, cols), backing
}

// randEmbedded is embedded with random contents inside the view.
func randEmbedded(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	v, _ := embedded(rng, rows, cols, nan32)
	v.CopyFrom(randTensor(rng, rows, cols))
	return v
}

// onlyViewWritten checks that the backing of a NaN-filled embedded output
// is still NaN everywhere outside the view, and NaN-free inside it.
func onlyViewWritten(t *testing.T, view, backing *tensor.Tensor) {
	t.Helper()
	nans := 0
	for r := 0; r < backing.Rows(); r++ {
		for _, v := range backing.Row(r) {
			if v != v {
				nans++
			}
		}
	}
	if want := backing.Len() - view.Len(); nans != want {
		t.Fatalf("%d NaNs left in the output backing, want %d: kernel skipped elements or wrote outside its view", nans, want)
	}
}

// oracleSchedules are the three loadbalance policies with thresholds low
// enough that even the small oracle cases shard across goroutines.
func oracleSchedules() []loadbalance.Schedule {
	return []loadbalance.Schedule{
		nil, // unbound: loadbalance.Default
		loadbalance.Static{Workers: 3, MinRows: 2},
		loadbalance.MergePath{Workers: 3, MinRows: 2},
		loadbalance.WorkSteal{Workers: 3, Chunk: 2, MinRows: 2},
	}
}

func bind(op graph.ScheduleBinder, s loadbalance.Schedule) graph.Operator {
	if s == nil {
		return op
	}
	return op.BindSchedule(s)
}

// conv2DSameRegions lists the output regions one oracle case checks on an
// h×w image: the whole image, each corner and each edge (halo clipped on
// two sides and on one), a strict interior (no clipping when the image is
// large enough), single rows and columns, and the whole of a thin strip
// (halo clipped on all four sides for kernels taller than the strip).
func conv2DSameRegions(rng *rand.Rand, h, w int) []graph.Region {
	rh, rw := 1+rng.Intn(h), 1+rng.Intn(w)
	regs := []graph.Region{
		{Rows: h, Cols: w},
		{Rows: rh, Cols: rw},                           // top-left corner
		{Row: h - rh, Col: w - rw, Rows: rh, Cols: rw}, // bottom-right corner
		{Row: h - rh, Rows: rh, Cols: rw},              // bottom-left
		{Col: w - rw, Rows: rh, Cols: rw},              // top-right
		{Row: h / 2, Rows: 1, Cols: w},                 // one full row
		{Col: w / 2, Rows: h, Cols: 1},                 // one full column
	}
	for i := 0; i < 4; i++ { // random, mostly interior
		r0, c0 := rng.Intn(h), rng.Intn(w)
		regs = append(regs, graph.Region{Row: r0, Col: c0, Rows: 1 + rng.Intn(h-r0), Cols: 1 + rng.Intn(w-c0)})
	}
	return regs
}

// checkConv2DSameRegion runs one (kernel, image, output region, input
// region) case through the library kernel and the oracle.
func checkConv2DSameRegion(t *testing.T, rng *rand.Rand, op graph.Operator, kh, kw int, root, ker *tensor.Tensor, inReg, outReg graph.Region) {
	t.Helper()
	img := randEmbedded(rng, inReg.Rows, inReg.Cols)
	img.CopyFrom(root.View(inReg.Row, inReg.Col, inReg.Rows, inReg.Cols))
	got, backing := embedded(rng, outReg.Rows, outReg.Cols, nan32)
	want := tensor.New(outReg.Rows, outReg.Cols)
	naiveConv2DSame(kh, kw, img, ker, inReg, want, outReg)
	inRegs := []graph.Region{inReg, {Rows: kh, Cols: kw}}
	if err := op.(graph.RegionRunner).RunRegion([]*tensor.Tensor{img, ker}, inRegs, got, outReg); err != nil {
		t.Fatalf("%dx%d out %v in %v: %v", kh, kw, outReg, inReg, err)
	}
	if !bitsEqual(got, want) {
		t.Fatalf("%dx%d kernel, out %v, in %v: differs from the naive loop (max |Δ| %g)",
			kh, kw, outReg, inReg, got.MaxAbsDiff(want))
	}
	onlyViewWritten(t, got, backing)
}

func TestConv2DSameMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, sched := range oracleSchedules() {
		for kh := 1; kh <= 7; kh++ {
			for kw := 1; kw <= 7; kw++ {
				// Images both larger and smaller than the kernel: a 3×4
				// image under a 7×7 kernel clips the halo on all four sides.
				for _, dim := range [][2]int{{3, 4}, {11 + rng.Intn(8), 9 + rng.Intn(12)}} {
					h, w := dim[0], dim[1]
					c := NewConv2DSame(kh, kw)
					op := bind(c, sched)
					root := randTensor(rng, h, w)
					ker := randEmbedded(rng, kh, kw)
					full := []graph.Region{{Rows: h, Cols: w}, {Rows: kh, Cols: kw}}
					for _, outReg := range conv2DSameRegions(rng, h, w) {
						// The clipped halo the splitting pass supplies …
						halo, _ := c.InputRegion(0, outReg, full)
						checkConv2DSameRegion(t, rng, op, kh, kw, root, ker, halo, outReg)
						// … and any narrower region still covering the
						// output (ValidateRegions accepts it; the missing
						// taps read as zero).
						in := graph.Region{
							Row: outReg.Row - rng.Intn(outReg.Row-halo.Row+1),
							Col: outReg.Col - rng.Intn(outReg.Col-halo.Col+1),
						}
						in.Rows = outReg.Row + outReg.Rows + rng.Intn(halo.Row+halo.Rows-outReg.Row-outReg.Rows+1) - in.Row
						in.Cols = outReg.Col + outReg.Cols + rng.Intn(halo.Col+halo.Cols-outReg.Col-outReg.Cols+1) - in.Col
						checkConv2DSameRegion(t, rng, op, kh, kw, root, ker, in, outReg)
					}
				}
			}
		}
	}
}

func TestConv2DMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, sched := range oracleSchedules() {
		for kh := 1; kh <= 7; kh++ {
			for kw := 1; kw <= 7; kw++ {
				oh, ow := 1+rng.Intn(12), 1+rng.Intn(12)
				img := randEmbedded(rng, oh+kh-1, ow+kw-1)
				ker := randEmbedded(rng, kh, kw)
				got, backing := embedded(rng, oh, ow, nan32)
				want := tensor.New(oh, ow)
				naiveConv2D(kh, kw, img, ker, want)
				if err := bind(NewConv2D(kh, kw), sched).Run([]*tensor.Tensor{img, ker}, got); err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(got, want) {
					t.Fatalf("%dx%d kernel, %dx%d output: differs from the naive loop", kh, kw, oh, ow)
				}
				onlyViewWritten(t, got, backing)
			}
		}
	}
}

func TestSeparableConvMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, sched := range oracleSchedules() {
		for k := 1; k <= 7; k++ {
			for _, dim := range [][2]int{{3, 4}, {10 + rng.Intn(8), 9 + rng.Intn(8)}} {
				h, w := dim[0], dim[1]
				c := NewSeparableConv2D(k)
				root := randTensor(rng, h, w)
				col, row := randEmbedded(rng, k, 1), randEmbedded(rng, 1, k)
				full := []graph.Region{{Rows: h, Cols: w}, {Rows: k, Cols: 1}, {Rows: 1, Cols: k}}
				for _, outReg := range conv2DSameRegions(rng, h, w) {
					inReg, _ := c.InputRegion(0, outReg, full)
					img := randEmbedded(rng, inReg.Rows, inReg.Cols)
					img.CopyFrom(root.View(inReg.Row, inReg.Col, inReg.Rows, inReg.Cols))
					got, backing := embedded(rng, outReg.Rows, outReg.Cols, nan32)
					want := tensor.New(outReg.Rows, outReg.Cols)
					naiveSepConv(k, img, col, row, inReg, want, outReg)
					inRegs := []graph.Region{inReg, full[1], full[2]}
					op := bind(c, sched).(graph.RegionRunner)
					if err := op.RunRegion([]*tensor.Tensor{img, col, row}, inRegs, got, outReg); err != nil {
						t.Fatal(err)
					}
					if !bitsEqual(got, want) {
						t.Fatalf("k=%d out %v in %v: differs from the naive loop", k, outReg, inReg)
					}
					onlyViewWritten(t, got, backing)
				}
			}
		}
	}
}

func TestSubsampleMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, sched := range oracleSchedules() {
		for k := 1; k <= 4; k++ {
			oh, ow := 1+rng.Intn(9), 1+rng.Intn(9)
			x := randEmbedded(rng, oh*k, ow*k)
			got, backing := embedded(rng, oh, ow, nan32)
			want := tensor.New(oh, ow)
			naiveSubsample(k, x, want)
			if err := bind(NewSubsample(k), sched).Run([]*tensor.Tensor{x}, got); err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got, want) {
				t.Fatalf("k=%d %dx%d output: differs from the naive loop", k, oh, ow)
			}
			onlyViewWritten(t, got, backing)
		}
	}
}

func TestElementwiseMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	ops := []graph.Operator{
		NewMaxCombine(3), NewAbsMaxCombine(2), NewAddN(4), NewAddN(1), NewTanh(),
		NewRemap(2, 0.1, -0.5, 0.5), NewScale(1.5), NewCopy(), NewFrontierMask(),
	}
	for _, sched := range oracleSchedules() {
		for _, o := range ops {
			e := o.(*elementwise)
			rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
			in := make([]*tensor.Tensor, e.nIn)
			for i := range in {
				in[i] = randEmbedded(rng, rows, cols)
			}
			got, backing := embedded(rng, rows, cols, nan32)
			want := tensor.New(rows, cols)
			naiveElementwise(e.fn, in, want)
			if err := bind(e, sched).Run(in, got); err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got, want) {
				t.Fatalf("%s %dx%d: differs from the naive loop", e.kind, rows, cols)
			}
			onlyViewWritten(t, got, backing)
		}
	}
}

// TestKernelsOverwriteOutput covers the operators the oracles above do
// not: the executor hands kernels recycled, uncleared output tensors, so
// every operator in the library must write every element of out whatever
// it held before.
func TestKernelsOverwriteOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s := randCSR(t, 5, 9, []int{0, 3, 1, 9, 0, 2})
	cases := []struct {
		op graph.Operator
		in []*tensor.Tensor
	}{
		{NewBiasAdd(), []*tensor.Tensor{randTensor(rng, 5, 6), randTensor(rng, 1, 1)}},
		{NewMatMul(), []*tensor.Tensor{randTensor(rng, 4, 5), randTensor(rng, 5, 3)}},
		{NewSpMV(s), []*tensor.Tensor{randTensor(rng, s.Rows, s.Cols), randTensor(rng, s.Cols, 1)}},
		{NewSpMM(s), []*tensor.Tensor{randTensor(rng, s.Rows, s.Cols), randTensor(rng, s.Cols, 3)}},
	}
	for _, c := range cases {
		want := run(t, c.op, c.in...)
		got, backing := embedded(rng, want.Rows(), want.Cols(), nan32)
		if err := c.op.Run(c.in, got); err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("%s: a NaN-filled output changes the result", c.op.Kind())
		}
		onlyViewWritten(t, got, backing)
	}
}

// TestElementwiseAllocsDoNotScaleWithRows: the per-launch scratch is two
// small slices, not one per output row.
func TestElementwiseAllocsDoNotScaleWithRows(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	op := bind(NewAddN(2).(*elementwise), loadbalance.Static{Workers: 1})
	allocs := func(rows int) float64 {
		in := []*tensor.Tensor{randTensor(rng, rows, 64), randTensor(rng, rows, 64)}
		out := tensor.New(rows, 64)
		return testing.AllocsPerRun(20, func() {
			if err := op.Run(in, out); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(64)
	if large != small || large > 4 {
		t.Fatalf("AddN(2) allocates %v objects on 4 rows and %v on 64: must not grow with rows", small, large)
	}
}

// FuzzConv2DSameRegion is the oracle comparison as a fuzz target, for
// local use: go test -fuzz FuzzConv2DSameRegion ./internal/ops/
func FuzzConv2DSameRegion(f *testing.F) {
	f.Add(uint8(12), uint8(9), uint8(5), uint8(5), uint8(2), uint8(1), uint8(6), uint8(4))
	f.Add(uint8(3), uint8(4), uint8(7), uint8(6), uint8(0), uint8(0), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, h8, w8, kh8, kw8, r8, c8, rows8, cols8 uint8) {
		h, w := 1+int(h8)%40, 1+int(w8)%40
		kh, kw := 1+int(kh8)%9, 1+int(kw8)%9
		outReg := graph.Region{Row: int(r8) % h, Col: int(c8) % w}
		outReg.Rows = 1 + int(rows8)%(h-outReg.Row)
		outReg.Cols = 1 + int(cols8)%(w-outReg.Col)
		rng := rand.New(rand.NewSource(int64(h*w + kh*kw)))
		c := NewConv2DSame(kh, kw)
		full := []graph.Region{{Rows: h, Cols: w}, {Rows: kh, Cols: kw}}
		inReg, _ := c.InputRegion(0, outReg, full)
		checkConv2DSameRegion(t, rng, c, kh, kw, randTensor(rng, h, w), randTensor(rng, kh, kw), inReg, outReg)
	})
}
