// Package workload generates the synthetic inputs the experiments run on.
// The paper's histological micrographs and CNN weights are proprietary;
// deterministic pseudo-random substitutes preserve every property the
// framework's behaviour depends on (dimensions and footprints), while the
// edge kernels are genuine oriented first-derivative filters so example
// outputs are meaningful edge maps.
package workload

import (
	"math"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/templates"
	"repro/internal/tensor"
)

// Image returns a deterministic synthetic image: smooth low-frequency
// structure (tissue-like blobs) plus mild noise, so edge detection has
// real edges to find.
func Image(seed int64, h, w int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(h, w)
	// A few random soft disks on a noisy background.
	type blob struct{ cr, cc, r, amp float64 }
	blobs := make([]blob, 6)
	for i := range blobs {
		blobs[i] = blob{
			cr:  rng.Float64() * float64(h),
			cc:  rng.Float64() * float64(w),
			r:   (0.05 + 0.2*rng.Float64()) * float64(min(h, w)),
			amp: 0.5 + rng.Float64(),
		}
	}
	for r := 0; r < h; r++ {
		row := t.Row(r)
		for c := 0; c < w; c++ {
			v := 0.1 * rng.Float64()
			for _, b := range blobs {
				dr := float64(r) - b.cr
				dc := float64(c) - b.cc
				d := math.Sqrt(dr*dr+dc*dc) / b.r
				if d < 1 {
					v += b.amp * (1 - d*d)
				}
			}
			row[c] = float32(v)
		}
	}
	return t
}

// EdgeKernel returns a k×k oriented edge filter: a first-derivative
// operator rotated to the given angle (radians), the "rotated versions of
// an edge filter" of §4.1.1.
func EdgeKernel(k int, angle float64) *tensor.Tensor {
	t := tensor.New(k, k)
	cx := float64(k-1) / 2
	s, c := math.Sin(angle), math.Cos(angle)
	sigma := float64(k) / 4
	for r := 0; r < k; r++ {
		row := t.Row(r)
		for col := 0; col < k; col++ {
			dr := float64(r) - cx
			dc := float64(col) - cx
			// Directional derivative of a Gaussian.
			u := dc*c + dr*s
			g := math.Exp(-(dr*dr + dc*dc) / (2 * sigma * sigma))
			row[col] = float32(-u / (sigma * sigma) * g)
		}
	}
	return t
}

// RandomTensor returns a deterministic tensor of uniform values in
// [-scale, scale].
func RandomTensor(seed int64, rows, cols int, scale float32) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(rows, cols)
	for r := 0; r < rows; r++ {
		row := t.Row(r)
		for i := range row {
			row[i] = (rng.Float32()*2 - 1) * scale
		}
	}
	return t
}

// EdgeInputs builds the input map for an edge-detection template: the
// synthetic image plus one rotated K×K kernel per convolution.
func EdgeInputs(bufs *templates.EdgeBuffers, seed int64) exec.Inputs {
	in := exec.Inputs{
		bufs.Image.ID: Image(seed, bufs.Image.Shape().Rows, bufs.Image.Shape().Cols),
	}
	n := len(bufs.Kernels)
	for i, kb := range bufs.Kernels {
		angle := math.Pi * float64(i) / float64(2*n)
		in[kb.ID] = EdgeKernel(kb.Shape().Rows, angle)
	}
	return in
}

// CNNInputs builds the input map for a CNN template: synthetic image
// planes plus small random weights and biases (scaled to keep tanh
// activations in range).
func CNNInputs(bufs *templates.CNNBuffers, seed int64) exec.Inputs {
	in := exec.Inputs{}
	for i, b := range bufs.Inputs {
		in[b.ID] = Image(seed+int64(i), b.Shape().Rows, b.Shape().Cols)
	}
	for i, b := range bufs.Params {
		in[b.ID] = RandomTensor(seed+1000+int64(i), b.Shape().Rows, b.Shape().Cols, 0.1)
	}
	return in
}
