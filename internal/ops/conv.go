package ops

import "repro/internal/tensor"

// convRows is the convolution kernel Conv2DSame runs: for output rows
// [r0, r1),
//
//	out[r][c] = Σ ker[kr][kc] · img[r+dr+kr][c+dc+kc]
//
// with taps outside img reading as zero. Each output row is zeroed, its
// kernel rows are clipped against the image once, and each kernel row's
// taps are then added into it by axpyTaps, one streaming pass per group:
// groups of four while more than five taps remain, then the remaining one
// to five taps as one last group, so a row of up to five taps (every 3×3
// and 5×5 kernel) is a single pass. Every element receives the taps in
// ascending (kr, kc) order, so it sees exactly the float32 additions, in
// the order, of a per-pixel accumulator that starts at +0 and skips
// out-of-image taps: results are bit-identical to that loop, and whatever
// out held before is overwritten.
func convRows(img, ker, out *tensor.Tensor, dr, dc, r0, r1 int) {
	for r := r0; r < r1; r++ {
		orow := out.Row(r)
		clear(orow)
		ir := r + dr
		for kr := max(0, -ir); kr < min(ker.Rows(), img.Rows()-ir); kr++ {
			irow, krow := img.Row(ir+kr), ker.Row(kr)
			kc := 0
			for ; len(krow)-kc > 5; kc += 4 {
				axpyTaps(orow, irow, dc+kc, krow[kc:kc+4])
			}
			axpyTaps(orow, irow, dc+kc, krow[kc:])
		}
	}
}

// axpyTaps adds Σ k[t]·x[c+off+t] over the 1–5 taps of k into o[c], taps
// in ascending t, each tap only where its source index lies inside x. The
// columns where every tap is inside x take one bounds-hoisted pass; each
// of the few edge columns where some are not computes its in-image tap
// range once and adds those taps one by one.
func axpyTaps(o, x []float32, off int, k []float32) {
	n := len(k)
	// [lo, hi): every tap inside x; [a0, a1): at least one.
	a0, a1 := max(0, -off-n+1), min(len(o), len(x)-off)
	lo, hi := max(0, -off), min(len(o), len(x)-off-n+1)
	if lo >= hi {
		lo, hi = a1, a1
	}
	axpyClipped(o, x, off, k, a0, lo)
	if lo < hi {
		oi, xs := o[lo:hi], x[lo+off:]
		x0 := xs[:len(oi)]
		switch n {
		case 1:
			k0 := k[0]
			for i := range oi {
				oi[i] = oi[i] + x0[i]*k0
			}
		case 2:
			k0, k1 := k[0], k[1]
			x1 := xs[1:][:len(oi)]
			for i := range oi {
				oi[i] = oi[i] + x0[i]*k0 + x1[i]*k1
			}
		case 3:
			k0, k1, k2 := k[0], k[1], k[2]
			x1, x2 := xs[1:][:len(oi)], xs[2:][:len(oi)]
			for i := range oi {
				oi[i] = oi[i] + x0[i]*k0 + x1[i]*k1 + x2[i]*k2
			}
		case 4:
			k0, k1, k2, k3 := k[0], k[1], k[2], k[3]
			x1, x2, x3 := xs[1:][:len(oi)], xs[2:][:len(oi)], xs[3:][:len(oi)]
			for i := range oi {
				oi[i] = oi[i] + x0[i]*k0 + x1[i]*k1 + x2[i]*k2 + x3[i]*k3
			}
		case 5:
			k0, k1, k2, k3, k4 := k[0], k[1], k[2], k[3], k[4]
			x1, x2, x3, x4 := xs[1:][:len(oi)], xs[2:][:len(oi)], xs[3:][:len(oi)], xs[4:][:len(oi)]
			for i := range oi {
				oi[i] = oi[i] + x0[i]*k0 + x1[i]*k1 + x2[i]*k2 + x3[i]*k3 + x4[i]*k4
			}
		}
	}
	axpyClipped(o, x, off, k, hi, a1)
}

// axpyClipped is axpyTaps for output columns [c0, c1): each column adds
// only its in-image taps [t0, t1).
func axpyClipped(o, x []float32, off int, k []float32, c0, c1 int) {
	for c := c0; c < c1; c++ {
		s := c + off
		t0, t1 := max(0, -s), min(len(k), len(x)-s)
		acc := o[c]
		for t := t0; t < t1; t++ {
			acc += x[s+t] * k[t]
		}
		o[c] = acc
	}
}
