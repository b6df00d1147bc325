package gpu

import (
	"fmt"
	"sort"
	"sync"
)

// Allocator is a first-fit free-list allocator over the device memory
// address range. It exhibits real external fragmentation, which is why
// planners receive only Spec.PlannerCapacity() of the physical memory
// (paper §3.3.2, final remark).
//
// The allocator is safe for concurrent use: the pipelined executor issues
// Alloc/Free from the DMA and compute goroutines simultaneously. Used and
// free byte totals are maintained as running counters, so UsedBytes and
// FreeBytes are O(1); Free inserts the released span by binary search and
// coalesces only with its two neighbours, so a free costs O(log n) search
// plus O(n) slice insertion instead of the former full re-sort.
type Allocator struct {
	mu        sync.Mutex
	size      int64
	free      []span // sorted by offset, coalesced
	used      map[int64]int64
	usedBytes int64 // running total of live allocation bytes
}

type span struct{ off, len int64 }

// NewAllocator returns an allocator over [0, size) bytes.
func NewAllocator(size int64) *Allocator {
	return &Allocator{
		size: size,
		free: []span{{0, size}},
		used: make(map[int64]int64),
	}
}

// Alloc reserves n bytes and returns the offset, or an error if no free
// span is large enough (out-of-memory or fragmentation).
func (a *Allocator) Alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("gpu: invalid allocation size %d", n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, s := range a.free {
		if s.len >= n {
			off := s.off
			if s.len == n {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{s.off + n, s.len - n}
			}
			a.used[off] = n
			a.usedBytes += n
			return off, nil
		}
	}
	return 0, fmt.Errorf("gpu: cannot allocate %d bytes (free %d in %d spans, largest %d): %w",
		n, a.size-a.usedBytes, len(a.free), a.largestFreeLocked(), ErrOOM)
}

// Free releases the allocation at off, coalescing with the (at most two)
// adjacent free spans. The insertion point is found by binary search on
// the sorted free list.
func (a *Allocator) Free(off int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	n, ok := a.used[off]
	if !ok {
		return fmt.Errorf("gpu: free of unallocated offset %d", off)
	}
	delete(a.used, off)
	a.usedBytes -= n

	// i is the index of the first free span past the released one; the
	// candidates for coalescing are free[i-1] (left) and free[i] (right).
	i := sort.Search(len(a.free), func(k int) bool { return a.free[k].off > off })
	left := i > 0 && a.free[i-1].off+a.free[i-1].len == off
	right := i < len(a.free) && off+n == a.free[i].off
	switch {
	case left && right:
		a.free[i-1].len += n + a.free[i].len
		a.free = append(a.free[:i], a.free[i+1:]...)
	case left:
		a.free[i-1].len += n
	case right:
		a.free[i].off = off
		a.free[i].len += n
	default:
		a.free = append(a.free, span{})
		copy(a.free[i+1:], a.free[i:])
		a.free[i] = span{off, n}
	}
	return nil
}

// Move records one live allocation relocated by Compact: Len bytes moved
// from offset Old to offset New.
type Move struct{ Old, New, Len int64 }

// Compact slides every live allocation toward offset zero in offset
// order, leaving all free space coalesced into one tail span, and returns
// the moves so the owner can redirect its handles. The framework manages
// device memory itself, so — unlike a raw driver allocator — it can
// defragment: every live buffer is one it placed, and the simulated
// device charges the D2D copy cost of the moves (Device.Compact).
func (a *Allocator) Compact() []Move {
	a.mu.Lock()
	defer a.mu.Unlock()
	offs := make([]int64, 0, len(a.used))
	for off := range a.used {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	var moves []Move
	var next int64
	used := make(map[int64]int64, len(a.used))
	for _, off := range offs {
		n := a.used[off]
		if off != next {
			moves = append(moves, Move{Old: off, New: next, Len: n})
		}
		used[next] = n
		next += n
	}
	a.used = used
	if next < a.size {
		a.free = []span{{next, a.size - next}}
	} else {
		a.free = nil
	}
	return moves
}

// UsedBytes returns the total allocated bytes (O(1), running counter).
func (a *Allocator) UsedBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.usedBytes
}

// FreeBytes returns the total free bytes, possibly fragmented (O(1)).
func (a *Allocator) FreeBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.size - a.usedBytes
}

func (a *Allocator) largestFreeLocked() int64 {
	var m int64
	for _, s := range a.free {
		if s.len > m {
			m = s.len
		}
	}
	return m
}

// FreeSpans returns the number of free spans (fragmentation indicator).
func (a *Allocator) FreeSpans() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free)
}
