package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/tensor"
)

// The naive* functions are the kernels as they stood before the row-axpy
// rewrite, and naiveElementwiseOps the per-element functions as they
// stood before the row kernels, kept verbatim (minus row sharding) as the
// oracle: the library kernels must reproduce them bit for bit — same
// float32 operations in the same order per element — not merely to a
// tolerance.

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

// naiveElementwiseOps pairs every elementwise operator with the
// per-element function the library ran before the row kernels, kept
// verbatim.
func naiveElementwiseOps() []struct {
	op graph.Operator
	fn func([]float32) float32
} {
	maxFn := func(v []float32) float32 {
		m := v[0]
		for _, x := range v[1:] {
			if x > m {
				m = x
			}
		}
		return m
	}
	absMaxFn := func(v []float32) float32 {
		m := float32(math.Abs(float64(v[0])))
		for _, x := range v[1:] {
			if a := float32(math.Abs(float64(x))); a > m {
				m = a
			}
		}
		return m
	}
	addFn := func(v []float32) float32 {
		var s float32
		for _, x := range v {
			s += x
		}
		return s
	}
	tanhFn := func(v []float32) float32 {
		return float32(math.Tanh(float64(v[0])))
	}
	remapFn := func(scale, offset, lo, hi float32) func([]float32) float32 {
		return func(v []float32) float32 {
			x := scale*v[0] + offset
			if x < lo {
				return lo
			}
			if x > hi {
				return hi
			}
			return x
		}
	}
	scaleFn := func(k float32) func([]float32) float32 {
		return func(v []float32) float32 {
			return k * v[0]
		}
	}
	frontierFn := func(v []float32) float32 {
		if v[0] > 0 && v[1] == 0 {
			return 1
		}
		return 0
	}
	return []struct {
		op graph.Operator
		fn func([]float32) float32
	}{
		{NewMaxCombine(3), maxFn}, {NewMaxCombine(1), maxFn},
		{NewAbsMaxCombine(2), absMaxFn}, {NewAbsMaxCombine(4), absMaxFn},
		{NewAddN(4), addFn}, {NewAddN(2), addFn}, {NewAddN(1), addFn},
		{NewTanh(), tanhFn},
		{NewRemap(2, 0.1, -0.5, 0.5), remapFn(2, 0.1, -0.5, 0.5)},
		{NewScale(1.5), scaleFn(1.5)}, {NewScale(-1), scaleFn(-1)}, {NewScale(1), scaleFn(1)},
		{NewFrontierMask(), frontierFn},
	}
}

// bitsEqual is stricter than Tensor.Equal: every bit of every non-NaN
// element counts, the sign of zero included, and a NaN must meet a NaN.
// NaN payloads do not count: Go leaves them unspecified, and the compiler
// may commute the operands of a float add, which on amd64 decides whose
// payload a NaN + NaN keeps.
func bitsEqual(a, b *tensor.Tensor) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for r := 0; r < a.Rows(); r++ {
		ar, br := a.Row(r), b.Row(r)
		for i := range ar {
			if math.Float32bits(ar[i]) != math.Float32bits(br[i]) && !(ar[i] != ar[i] && br[i] != br[i]) {
				return false
			}
		}
	}
	return true
}

// nan32 poisons the storage around and under test tensors: a NaN whose
// payload no kernel produces from the inputs, so onlyViewWritten can tell
// it from a NaN a kernel computed.
var nan32 = math.Float32frombits(0x7fc0dead)

// zeroish (signed zeros and the extreme subnormals) and nonFinite are the
// special values at which evaluation order shows in a sum's zero sign or
// non-finite result; specials adds the largest finite values (whose sums
// overflow) and a few ordinary ones.
var (
	zeroish = []float32{
		0, math.Float32frombits(1 << 31),
		math.Float32frombits(1), -math.Float32frombits(1),
		math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff),
	}
	nonFinite = []float32{
		float32(math.NaN()), -float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)),
	}
	specials = append(append(append([]float32{}, zeroish...), nonFinite...),
		math.MaxFloat32, -math.MaxFloat32, 1, -1, 0.5)
)

// specialAt is element (r, c) of input i in the special-values grid:
// input 0 varies down the rows and input 1 across the columns, so every
// pair of specials meets; later inputs vary along both.
func specialAt(i, r, c int) float32 {
	switch i {
	case 0:
		return specials[r%len(specials)]
	case 1:
		return specials[c%len(specials)]
	}
	return specials[(r+i*c)%len(specials)]
}

// specialTensor is randTensor with half its elements zeroish and one in
// 32 non-finite, so that outputs mix sums whose zero sign matters with
// non-finite ones.
func specialTensor(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	t := randTensor(rng, rows, cols)
	for r := 0; r < rows; r++ {
		row := t.Row(r)
		for i := range row {
			switch p := rng.Intn(64); {
			case p < 2:
				row[i] = nonFinite[rng.Intn(len(nonFinite))]
			case p < 34:
				row[i] = zeroish[rng.Intn(len(zeroish))]
			}
		}
	}
	return t
}

// tensorFills are the two input distributions every conv oracle runs:
// uniform in [-1, 1), and specialTensor.
var tensorFills = []struct {
	name string
	fill func(*rand.Rand, int, int) *tensor.Tensor
}{{"random", randTensor}, {"special", specialTensor}}

// convWidths are the kernel sizes the conv oracles sweep. convRows cuts a
// kernel row into groups of four taps while more than five remain, then
// one last group of the rest, so 1–5 are a last group of 1–5 taps alone,
// 6–9 and 10–13 a last group of 2–5 after one and after two groups of
// four, and the paper's 16-tap edge kernel and 17 a last group of four
// and of five after three.
var convWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17}

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
	return embed(rng, randTensor(rng, rows, cols))
}

// embed returns a copy of src as a view inside a NaN-filled backing.
func embed(rng *rand.Rand, src *tensor.Tensor) *tensor.Tensor {
	v, _ := embedded(rng, src.Rows(), src.Cols(), nan32)
	v.CopyFrom(src)
	return v
}

// onlyViewWritten checks that the backing of a nan32-filled embedded
// output still holds nan32 everywhere outside the view, and nowhere
// inside it.
func onlyViewWritten(t *testing.T, view, backing *tensor.Tensor) {
	t.Helper()
	poisoned := 0
	for r := 0; r < backing.Rows(); r++ {
		for _, v := range backing.Row(r) {
			if math.Float32bits(v) == math.Float32bits(nan32) {
				poisoned++
			}
		}
	}
	if want := backing.Len() - view.Len(); poisoned != want {
		t.Fatalf("%d poison NaNs left in the output backing, want %d: kernel skipped elements or wrote outside its view", poisoned, want)
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
// large enough), single rows and columns, a strip of 1–4 columns (narrower
// than a five-tap group), and the whole of a thin strip (halo clipped on
// all four sides for kernels taller than the strip).
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
	if w > 1 { // a strip narrower than a five-tap group
		n := 1 + rng.Intn(min(4, w-1))
		regs = append(regs, graph.Region{Col: rng.Intn(w - n + 1), Rows: h, Cols: n})
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

// TestConv2DSameMatchesNaiveOracle runs one parallel subtest per schedule,
// each on its own seed: fifteen widths on both axes make it the package's
// longest test.
func TestConv2DSameMatchesNaiveOracle(t *testing.T) {
	for i, sched := range oracleSchedules() {
		t.Run(fmt.Sprintf("schedule%d", i), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(24 + int64(i)))
			for _, f := range tensorFills {
				for _, kh := range convWidths {
					for _, kw := range convWidths {
						// Images both larger and smaller than the kernel: a 3×4
						// image under a 7×7 kernel clips the halo on all four
						// sides, and both are narrower than a five-tap group.
						for _, dim := range [][2]int{{3, 4}, {4, 3}, {11 + rng.Intn(8), 9 + rng.Intn(12)}} {
							h, w := dim[0], dim[1]
							c := NewConv2DSame(kh, kw)
							op := bind(c, sched)
							root := f.fill(rng, h, w)
							ker := embed(rng, f.fill(rng, kh, kw))
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
		})
	}
}

func TestConv2DMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, sched := range oracleSchedules() {
		for _, f := range tensorFills {
			for _, kh := range convWidths {
				for _, kw := range convWidths {
					// One output narrower than a five-tap group, one of any width.
					for _, ow := range []int{1 + rng.Intn(4), 1 + rng.Intn(20)} {
						oh := 1 + rng.Intn(12)
						img := embed(rng, f.fill(rng, oh+kh-1, ow+kw-1))
						ker := embed(rng, f.fill(rng, kh, kw))
						got, backing := embedded(rng, oh, ow, nan32)
						want := tensor.New(oh, ow)
						naiveConv2D(kh, kw, img, ker, want)
						if err := bind(NewConv2D(kh, kw), sched).Run([]*tensor.Tensor{img, ker}, got); err != nil {
							t.Fatal(err)
						}
						if !bitsEqual(got, want) {
							t.Fatalf("%s %dx%d kernel, %dx%d output: differs from the naive loop", f.name, kh, kw, oh, ow)
						}
						onlyViewWritten(t, got, backing)
					}
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

// TestElementwiseMatchesNaiveOracle runs every row kernel against its
// per-element oracle twice: on random inputs, and on the special-values
// grid (specialAt), where -0 + -0, NaN against every operand and every
// overflow occur.
func TestElementwiseMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, sched := range oracleSchedules() {
		for _, c := range naiveElementwiseOps() {
			e := c.op.(*elementwise)
			for _, special := range []bool{false, true} {
				rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
				if special {
					rows, cols = len(specials), len(specials)
				}
				in := make([]*tensor.Tensor, e.nIn)
				for i := range in {
					in[i] = randEmbedded(rng, rows, cols)
					for r := 0; special && r < rows; r++ {
						for col := range cols {
							in[i].Set(r, col, specialAt(i, r, col))
						}
					}
				}
				got, backing := embedded(rng, rows, cols, nan32)
				want := tensor.New(rows, cols)
				naiveElementwise(c.fn, in, want)
				if err := bind(e, sched).Run(in, got); err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(got, want) {
					t.Fatalf("%s(%s) %dx%d, special values %v: differs from the naive loop", e.kind, e.params, rows, cols, special)
				}
				onlyViewWritten(t, got, backing)
			}
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
		{NewSpMV(s), []*tensor.Tensor{randTensor(rng, s.Rows, s.Cols), randTensor(rng, s.Cols, 1)}},
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

// TestElementwiseAllocsDoNotScaleWithRows: a launch allocates only the
// closure it hands the schedule. A row kernel takes the input tensors and
// a row index, so no per-launch or per-row scratch (such as a slice of
// input rows passed through the indirect call) may escape.
func TestElementwiseAllocsDoNotScaleWithRows(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, c := range naiveElementwiseOps() {
		e := c.op.(*elementwise)
		op := bind(e, loadbalance.Static{Workers: 1})
		allocs := func(rows int) float64 {
			in := make([]*tensor.Tensor, e.nIn)
			for i := range in {
				in[i] = randTensor(rng, rows, 64)
			}
			out := tensor.New(rows, 64)
			return testing.AllocsPerRun(20, func() {
				if err := op.Run(in, out); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(4), allocs(64); small > 1 || large > 1 {
			t.Fatalf("%s(%s) allocates %v objects on 4 rows and %v on 64, want at most 1", e.kind, e.params, small, large)
		}
	}
}

// FuzzConv2DSameRegion is the oracle comparison as a fuzz target, for
// local use: go test -fuzz FuzzConv2DSameRegion ./internal/ops/
func FuzzConv2DSameRegion(f *testing.F) {
	f.Add(uint8(12), uint8(9), uint8(5), uint8(5), uint8(2), uint8(1), uint8(6), uint8(4))
	f.Add(uint8(3), uint8(4), uint8(7), uint8(6), uint8(0), uint8(0), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, h8, w8, kh8, kw8, r8, c8, rows8, cols8 uint8) {
		h, w := 1+int(h8)%40, 1+int(w8)%40
		kh, kw := 1+int(kh8)%17, 1+int(kw8)%17
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
