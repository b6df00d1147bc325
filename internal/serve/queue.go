package serve

import (
	"slices"
	"sync"
)

// devQueue is a bounded FIFO of batches. It replaces the buffered
// channel the pool used before fault tolerance: a channel cannot give
// up a buffered element, which made eager deadline expiry (remove an
// expired batch without dequeuing everything in front of it) and
// quarantine migration (drain a sick device's backlog atomically)
// impossible.
type devQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*batch
	depth  int
	closed bool
}

func newDevQueue(depth int) *devQueue {
	q := &devQueue{depth: depth}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// tryPush appends b without blocking; false when the queue is full or
// closed (admission maps full to ErrQueueFull, closed to ErrClosed).
func (q *devQueue) tryPush(b *batch) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.items) >= q.depth {
		return false
	}
	q.items = append(q.items, b)
	q.cond.Signal()
	return true
}

// pop blocks until a batch is available (FIFO) or the queue is closed
// and empty, mirroring a receive from a closed buffered channel: queued
// work still drains after close.
func (q *devQueue) pop() (*batch, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	b := q.items[0]
	q.items = q.items[1:]
	return b, true
}

// remove takes b out of the queue wherever it sits, freeing its slot
// immediately (a no-op when b was already dequeued).
func (q *devQueue) remove(b *batch) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = slices.DeleteFunc(q.items, func(it *batch) bool { return it == b })
}

// drain removes and returns every queued batch — the quarantine path's
// atomic grab of a sick device's backlog for migration.
func (q *devQueue) drain() []*batch {
	q.mu.Lock()
	defer q.mu.Unlock()
	items := q.items
	q.items = nil
	return items
}

// len reports the current queue depth.
func (q *devQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close stops pushes and wakes every blocked pop; queued batches still
// drain.
func (q *devQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
