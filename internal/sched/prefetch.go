package sched

// PrefetchH2D hoists host→GPU copies as early in the plan as device
// memory allows, so an executor with asynchronous transfer support
// (§3.3.2's extension) can overlap them with earlier kernels. The pass
// preserves plan semantics exactly:
//
//   - an H2D never crosses another step touching the same buffer (its
//     previous residency period or the D2H that made the host copy valid);
//   - the device residency after hoisting stays within capacity at every
//     step, so the executor's allocator cannot run out where it previously
//     did not.
//
// On synchronous devices the reordered plan costs the same time (the
// engines serialize anyway), so it is safe to prefetch unconditionally.
func PrefetchH2D(plan *Plan, capacity int64) *Plan {
	steps := append([]Step(nil), plan.Steps...)

	// residentAfter[i] = device residency in floats after step i executes.
	residency := func() []int64 {
		out := make([]int64, len(steps))
		var cur int64
		for i, s := range steps {
			switch s.Kind {
			case StepH2D:
				cur += s.Buf.Size()
			case StepFree:
				cur -= s.Buf.Size()
			case StepLaunch:
				// Outputs are allocated at launch; they stay resident until
				// an explicit Free.
				for _, b := range s.Node.OutputBuffers() {
					cur += b.Size()
				}
			}
			out[i] = cur
		}
		return out
	}

	touches := func(s Step, id int) bool {
		if s.Buf != nil && s.Buf.ID == id {
			return true
		}
		if s.Node != nil {
			for _, b := range s.Node.Buffers() {
				if b.ID == id {
					return true
				}
			}
		}
		return false
	}

	for i := 0; i < len(steps); i++ {
		if steps[i].Kind != StepH2D {
			continue
		}
		buf := steps[i].Buf
		res := residency()
		// Find the earliest insertion point p (< i) such that hoisting is
		// valid across every step in [p, i).
		p := i
		for j := i - 1; j >= 0; j-- {
			if touches(steps[j], buf.ID) {
				break
			}
			// After hoisting to j, residency grows by buf.Size() over
			// [j, i) — including immediately after the hoisted copy
			// itself, whose predecessor is step j-1.
			if res[j]+buf.Size() > capacity {
				break
			}
			prev := int64(0)
			if j > 0 {
				prev = res[j-1]
			}
			if prev+buf.Size() > capacity {
				break
			}
			p = j
		}
		if p == i {
			continue
		}
		h := steps[i]
		copy(steps[p+1:i+1], steps[p:i])
		steps[p] = h
	}

	out := &Plan{Steps: steps, Order: plan.Order}
	// Recompute the peak (hoisting can only raise it, still <= capacity).
	for _, r := range residency() {
		out.PeakFloats = max(out.PeakFloats, r)
	}
	return out
}
