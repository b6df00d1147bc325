package serve

import (
	"fmt"
	"sync"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sched"
)

// ledger is one device's admission state: the committed-bytes account that
// bounds what concurrent batches may reserve against the device's physical
// memory and, with residency on, the cross-job pinned set charged to the
// same account. Its methods are the only code that changes committed, so
// the invariant
//
//	committed = Σ reserves of admitted batches + pins.Bytes()
//
// is kept — and asserted after every mutation, see settled — in this one
// place. After the pool drains, committed therefore returns exactly to
// the pinned-set size.
type ledger struct {
	device   string // metric label
	capacity int64  // physical device memory in bytes
	obs      *obs.Observer

	mu        sync.Mutex
	cond      *sync.Cond // signalled whenever committed drops
	committed int64
	reserved  int64       // Σ hold.bytes of admitted batches
	pins      *gpu.PinSet // nil with residency off

	pinHits, pinMisses, pinEvictions int64
}

// hold is what one admitted batch holds on one ledger: its reserved bytes
// and the pin refs a pinned-set grant took. release returns exactly this.
type hold struct {
	bytes int64
	pins  []string
}

func newLedger(device string, capacity int64, residency bool, o *obs.Observer) *ledger {
	l := &ledger{device: device, capacity: capacity, obs: o}
	l.cond = sync.NewCond(&l.mu)
	if residency {
		l.pins = gpu.NewPinSet()
	}
	return l
}

// settled closes every mutation (mu held): it asserts the ledger invariant
// — a violation is a bookkeeping bug that would otherwise over-subscribe
// or leak device memory silently — and refreshes the ledger's gauges.
func (l *ledger) settled() {
	var pinned int64
	if l.pins != nil {
		pinned = l.pins.Bytes()
		metricGauge(l.obs, metricPinBytes, float64(pinned), "device", l.device)
	}
	if l.committed != l.reserved+pinned {
		panic(fmt.Sprintf("serve: ledger %s out of balance: committed %d != reserves %d + pins %d",
			l.device, l.committed, l.reserved, pinned))
	}
	metricGauge(l.obs, metricCommittedBytes, float64(l.committed), "device", l.device)
}

// fits reports whether need more bytes fit (mu held), evicting idle LRU
// pins toward the deficit first: eviction yields to admission, so a pool
// that fit its workloads before residency still fits them (zero OOM).
func (l *ledger) fits(need int64) bool {
	if deficit := l.committed + need - l.capacity; deficit > 0 && l.pins != nil {
		if freed, n := l.pins.EvictLRU(deficit); n > 0 {
			l.committed -= freed
			l.pinEvictions += int64(n)
			metricAdd(l.obs, metricPinEvictions, int64(n), "device", l.device)
		}
	}
	return l.committed+need <= l.capacity
}

// tryReserve charges need bytes if they fit right now; it never waits.
func (l *ledger) tryReserve(need int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	ok := l.fits(need)
	if ok {
		l.committed += need
		l.reserved += need
	}
	l.settled()
	return ok
}

// awaitRoom blocks until need bytes would fit, charging nothing.
func (l *ledger) awaitRoom(need int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.fits(need) {
		l.cond.Wait()
	}
	l.settled()
}

// reserve charges shares[i] to ls[i] for every i — all of them or none —
// blocking while concurrent batches hold too much. Members are walked in
// order; one that cannot fit (even after evicting idle pins) rolls the
// partial reservation back before the caller waits for room on it, so a
// blocked caller holds nothing while it sleeps and two batches contending
// for overlapping ledger sets cannot deadlock on pieces of each other's
// memory. With one ledger there is nothing to roll back: reserve is then
// the plain wait-until-it-fits reservation.
func reserve(ls []*ledger, shares []int64) []hold {
	for {
		blocked := -1
		for i, l := range ls {
			if !l.tryReserve(shares[i]) {
				blocked = i
				break
			}
		}
		if blocked < 0 {
			holds := make([]hold, len(ls))
			for i := range holds {
				holds[i].bytes = shares[i]
			}
			return holds
		}
		for i := 0; i < blocked; i++ {
			ls[i].release(hold{bytes: shares[i]})
		}
		// Room appearing on the blocked ledger restarts the pass from
		// scratch (another batch may take it meanwhile).
		ls[blocked].awaitRoom(shares[blocked])
	}
}

// grant is the pinned-set admission for a plan whose artifact carries a
// residency analysis: take refs on the already-pinned shareable buffers
// (these become the batch's elided resident set), install the missing ones
// (paid for by this batch's own upload), and reserve only the plan's
// transient peak — evicting unreferenced LRU pins when that doesn't fit.
// If it cannot fit even after eviction, every just-taken ref is released
// and ok is false: the caller falls back to reserve, so a batch never
// waits while holding pin refs (all pins held by waiting batches would be
// unevictable, and two starved batches could deadlock). ok is also false
// with residency off or nothing shareable.
func (l *ledger) grant(r *sched.Residency, prefix string) (h hold, resident map[int]bool, ok bool) {
	if l.pins == nil || r == nil || len(r.Shareable) == 0 {
		return hold{}, nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	defer l.settled()
	resident = make(map[int]bool)
	var missing []int // indices into r.Shareable
	var missBytes int64
	for i, rb := range r.Shareable {
		key := gpu.PinKey(prefix, rb.Digest)
		if _, hit := l.pins.Acquire(key); hit {
			h.pins = append(h.pins, key)
			resident[rb.ID] = true
		} else {
			missing = append(missing, i)
			missBytes += rb.Bytes
		}
	}
	if !l.fits(r.TransientPeakBytes + missBytes) {
		for _, key := range h.pins {
			l.pins.Release(key)
		}
		return hold{}, nil, false
	}
	l.committed += r.TransientPeakBytes + missBytes
	l.reserved += r.TransientPeakBytes
	for _, i := range missing {
		key := gpu.PinKey(prefix, r.Shareable[i].Digest)
		l.pins.Install(key, r.Shareable[i].Bytes)
		h.pins = append(h.pins, key)
	}
	hits, misses := int64(len(r.Shareable)-len(missing)), int64(len(missing))
	l.pinHits += hits
	l.pinMisses += misses
	metricAdd(l.obs, metricPinHits, hits, "device", l.device)
	metricAdd(l.obs, metricPinMisses, misses, "device", l.device)
	h.bytes = r.TransientPeakBytes
	return h, resident, true
}

// release returns a hold: its bytes and its pin refs. Refs released on a
// written-off pinned set delete their doomed entries with no ledger change
// — writeOff already took those bytes off.
func (l *ledger) release(h hold) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, key := range h.pins {
		l.pins.Release(key)
	}
	l.committed -= h.bytes
	l.reserved -= h.bytes
	l.settled()
	l.cond.Broadcast()
}

// writeOff takes the whole pinned set off the ledger — a quarantined
// device's memory contents are suspect. Entries still referenced by
// in-flight batches linger doomed until their final release; re-admission
// after recovery re-installs from host copies.
func (l *ledger) writeOff() {
	if l.pins == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if freed := l.pins.Clear(); freed > 0 {
		l.committed -= freed
		l.settled()
		l.cond.Broadcast()
	}
}

// load returns the committed bytes (the running half of the load signal).
func (l *ledger) load() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed
}

// affinity returns the pinned bytes already held for a fingerprint prefix
// (zero with residency off).
func (l *ledger) affinity(prefix string) int64 {
	if l.pins == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pins.AffinityBytes(prefix)
}

// fill writes the ledger's slice of DeviceStats (the pin fields stay zero
// with residency off).
func (l *ledger) fill(ds *DeviceStats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ds.CommittedBytes = l.committed
	if l.pins != nil {
		ds.PinnedBytes, ds.PinnedBuffers = l.pins.Bytes(), l.pins.Count()
		ds.PinHits, ds.PinMisses, ds.PinEvictions = l.pinHits, l.pinMisses, l.pinEvictions
	}
}
