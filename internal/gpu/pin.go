// Pinned-set management: read-only buffers that survive job teardown so
// later jobs sharing the same template state skip their H2D replay
// (CrystalGPU-style cross-call buffer reuse). A PinSet is pure
// bookkeeping — it owns no allocator offsets; the serving layer charges
// pinned bytes against its committed-bytes ledger and the executor
// elides the transfers in its modeled accounting. A PinKey names a
// buffer by position (fingerprint prefix, plan ordinal), not by content.
package gpu

import "sort"

// PinKey names one pinned buffer: a graph fingerprint prefix and the
// buffer's ordinal in its plan's Buffers().
type PinKey struct {
	Prefix  string
	Ordinal int
}

// pinEntry is one pinned buffer's bookkeeping.
type pinEntry struct {
	bytes   int64
	refs    int
	lastUse uint64 // LRU sequence of the last Acquire/Install
	// doomed marks an entry invalidated by Clear while still referenced:
	// its bytes are already written off the ledger, no new Acquire may
	// hit it, and the final Release deletes it silently.
	doomed bool
}

// PinSet tracks the pinned (device-resident across jobs) read-only
// buffers of one device. It is NOT internally synchronized: the owner
// serializes access (the serving layer holds its per-device mutex, which
// also guards the committed-bytes ledger the set is accounted against).
//
// Lifecycle per entry:
//
//	Install (refs=1, bytes charged by caller) →
//	Acquire/Release pairs while jobs run →
//	EvictLRU at refs==0 when admission needs room (bytes released), or
//	Clear on device quarantine (bytes released immediately; referenced
//	entries linger doomed until their last Release).
type PinSet struct {
	entries map[PinKey]*pinEntry
	seq     uint64
}

// NewPinSet returns an empty pinned set.
func NewPinSet() *PinSet {
	return &PinSet{entries: make(map[PinKey]*pinEntry)}
}

// Acquire takes a reference on an existing pin. It returns the entry's
// size and true on a hit; a missing or doomed key is a miss and leaves
// the set unchanged.
func (s *PinSet) Acquire(key PinKey) (int64, bool) {
	e := s.entries[key]
	if e == nil || e.doomed {
		return 0, false
	}
	e.refs++
	s.seq++
	e.lastUse = s.seq
	return e.bytes, true
}

// Install inserts a new pin with one reference held by the caller. The
// caller must have charged bytes to its ledger first. Installing over a
// live key is a programming error and panics: the admission path always
// Acquires before it Installs.
func (s *PinSet) Install(key PinKey, bytes int64) {
	if e := s.entries[key]; e != nil && !e.doomed {
		panic("gpu: PinSet.Install over a live key of " + key.Prefix)
	}
	// A doomed entry under the same key is superseded: its bytes were
	// already written off, and its holder releases by pointer-free key
	// semantics — replace it and let the stale Release find refs==0 safe.
	s.seq++
	s.entries[key] = &pinEntry{bytes: bytes, refs: 1, lastUse: s.seq}
}

// Release drops one reference. Doomed entries are deleted on their last
// release (their bytes were written off at Clear time); live entries
// stay resident at refs==0, eligible for EvictLRU. Unknown keys are
// ignored — a Clear+Install cycle can orphan an old holder's key.
func (s *PinSet) Release(key PinKey) {
	e := s.entries[key]
	if e == nil {
		return
	}
	if e.refs > 0 {
		e.refs--
	}
	if e.doomed && e.refs == 0 {
		delete(s.entries, key)
	}
}

// EvictLRU evicts unreferenced, non-doomed entries in least-recently-
// used order until at least need bytes are freed or no candidates
// remain. It returns the bytes actually freed (possibly < need) and the
// entry count evicted; the caller credits the freed bytes back to its
// ledger.
func (s *PinSet) EvictLRU(need int64) (freed int64, evicted int) {
	type cand struct {
		key     PinKey
		bytes   int64
		lastUse uint64
	}
	var cands []cand
	for k, e := range s.entries {
		if e.refs == 0 && !e.doomed {
			cands = append(cands, cand{k, e.bytes, e.lastUse})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lastUse < cands[j].lastUse })
	for _, c := range cands {
		if freed >= need {
			break
		}
		delete(s.entries, c.key)
		freed += c.bytes
		evicted++
	}
	return freed, evicted
}

// Clear invalidates the whole set (device quarantine: a reset device
// holds no resident data). Unreferenced entries are removed outright;
// referenced entries are doomed — excluded from Bytes, Acquire, and
// affinity immediately, deleted by their holders' final Release. The
// returned total covers both kinds, so the caller writes every pinned
// byte off its ledger now.
func (s *PinSet) Clear() (freed int64) {
	for k, e := range s.entries {
		if e.doomed {
			continue // already written off by an earlier Clear
		}
		freed += e.bytes
		if e.refs == 0 {
			delete(s.entries, k)
		} else {
			e.doomed = true
		}
	}
	return freed
}

// Bytes returns the total size of live (non-doomed) pins — the amount
// the owner's ledger currently carries for the set.
func (s *PinSet) Bytes() (total int64) {
	for _, e := range s.entries {
		if !e.doomed {
			total += e.bytes
		}
	}
	return total
}

// Count returns the number of live (non-doomed) pins.
func (s *PinSet) Count() (n int) {
	for _, e := range s.entries {
		if !e.doomed {
			n++
		}
	}
	return n
}

// AffinityBytes returns the live pinned bytes whose key carries the
// given fingerprint prefix — the placement signal for residency-affine
// scheduling.
func (s *PinSet) AffinityBytes(prefix string) (total int64) {
	for k, e := range s.entries {
		if !e.doomed && k.Prefix == prefix {
			total += e.bytes
		}
	}
	return total
}
