package gpu

import "testing"

func TestPinSetAcquireInstallRelease(t *testing.T) {
	s := NewPinSet()
	if _, ok := s.Acquire(PinKey{"fp", 0}); ok {
		t.Fatal("acquire on empty set should miss")
	}
	s.Install(PinKey{"fp", 0}, 100)
	if got := s.Bytes(); got != 100 {
		t.Fatalf("Bytes = %d, want 100", got)
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	b, ok := s.Acquire(PinKey{"fp", 0})
	if !ok || b != 100 {
		t.Fatalf("Acquire = (%d, %v), want (100, true)", b, ok)
	}
	s.Release(PinKey{"fp", 0})
	s.Release(PinKey{"fp", 0})
	// Entry stays resident at refs==0.
	if got := s.Bytes(); got != 100 {
		t.Fatalf("Bytes after release = %d, want 100 (stays pinned)", got)
	}
	if _, ok := s.Acquire(PinKey{"fp", 0}); !ok {
		t.Fatal("re-acquire after full release should hit")
	}
}

func TestPinSetEvictLRUOrder(t *testing.T) {
	s := NewPinSet()
	s.Install(PinKey{"fp", 0}, 10)
	s.Install(PinKey{"fp", 1}, 20)
	s.Install(PinKey{"fp", 2}, 30)
	s.Release(PinKey{"fp", 0})
	s.Release(PinKey{"fp", 1})
	s.Release(PinKey{"fp", 2})
	// Touch a so b becomes the LRU candidate.
	s.Acquire(PinKey{"fp", 0})
	s.Release(PinKey{"fp", 0})

	freed, n := s.EvictLRU(1)
	if freed != 20 || n != 1 {
		t.Fatalf("EvictLRU(1) = (%d, %d), want (20, 1) — b is LRU", freed, n)
	}
	if _, ok := s.Acquire(PinKey{"fp", 1}); ok {
		t.Fatal("b should be evicted")
	}
	freed, n = s.EvictLRU(100)
	if freed != 40 || n != 2 {
		t.Fatalf("EvictLRU(100) = (%d, %d), want (40, 2)", freed, n)
	}
	if s.Bytes() != 0 || s.Count() != 0 {
		t.Fatalf("set should be empty, got %d bytes / %d entries", s.Bytes(), s.Count())
	}
}

func TestPinSetEvictSkipsReferenced(t *testing.T) {
	s := NewPinSet()
	s.Install(PinKey{"fp", 0}, 10) // refs=1, held
	s.Install(PinKey{"fp", 1}, 20)
	s.Release(PinKey{"fp", 1})
	freed, n := s.EvictLRU(1000)
	if freed != 20 || n != 1 {
		t.Fatalf("EvictLRU = (%d, %d), want (20, 1): referenced pin must survive", freed, n)
	}
	if _, ok := s.Acquire(PinKey{"fp", 0}); !ok {
		t.Fatal("referenced pin evicted")
	}
}

func TestPinSetClearDoomsReferenced(t *testing.T) {
	s := NewPinSet()
	s.Install(PinKey{"fp", 0}, 10) // held
	s.Install(PinKey{"fp", 1}, 20)
	s.Release(PinKey{"fp", 1})
	freed := s.Clear()
	if freed != 30 {
		t.Fatalf("Clear freed %d, want 30 (both live entries written off)", freed)
	}
	if s.Bytes() != 0 {
		t.Fatalf("Bytes after Clear = %d, want 0", s.Bytes())
	}
	if _, ok := s.Acquire(PinKey{"fp", 0}); ok {
		t.Fatal("doomed entry must not be acquirable")
	}
	// Double Clear must not double-count the doomed entry.
	if freed := s.Clear(); freed != 0 {
		t.Fatalf("second Clear freed %d, want 0", freed)
	}
	// Final release of the doomed holder deletes it.
	s.Release(PinKey{"fp", 0})
	// a fresh Install under the same key must work afterwards
	s.Install(PinKey{"fp", 0}, 40)
	if got := s.Bytes(); got != 40 {
		t.Fatalf("Bytes after reinstall = %d, want 40", got)
	}
}

func TestPinSetInstallOverDoomed(t *testing.T) {
	s := NewPinSet()
	s.Install(PinKey{"fp", 0}, 10) // held by job 1
	if freed := s.Clear(); freed != 10 {
		t.Fatalf("Clear freed %d, want 10", freed)
	}
	// Job 2 re-installs while job 1 still holds the doomed entry.
	s.Install(PinKey{"fp", 0}, 10)
	if s.Bytes() != 10 || s.Count() != 1 {
		t.Fatalf("got %d bytes / %d entries, want 10 / 1", s.Bytes(), s.Count())
	}
	s.Release(PinKey{"fp", 0}) // job 1's stale release must not kill the new entry
	if _, ok := s.Acquire(PinKey{"fp", 0}); !ok {
		t.Fatal("new entry should survive the stale release of the doomed one")
	}
}

func TestPinSetAffinityBytes(t *testing.T) {
	s := NewPinSet()
	s.Install(PinKey{"aaaa", 1}, 10)
	s.Install(PinKey{"aaaa", 2}, 20)
	s.Install(PinKey{"bbbb", 1}, 40)
	// A prefix of a live prefix is a different family.
	if got := s.AffinityBytes("aa"); got != 0 {
		t.Fatalf("AffinityBytes(aa) = %d, want 0", got)
	}
	if got := s.AffinityBytes("aaaa"); got != 30 {
		t.Fatalf("AffinityBytes(aaaa) = %d, want 30", got)
	}
	if got := s.AffinityBytes("bbbb"); got != 40 {
		t.Fatalf("AffinityBytes(bbbb) = %d, want 40", got)
	}
	if got := s.AffinityBytes("cccc"); got != 0 {
		t.Fatalf("AffinityBytes(cccc) = %d, want 0", got)
	}
}
