package serve

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sched"
)

// Seeded random reserve / grant / release / writeOff sequences over k
// ledgers: after every operation each ledger must satisfy
// committed == Σ outstanding reserves + pins.Bytes() (the test keeps its
// own Σ) and stay within capacity; after the drain no reserve remains. A
// final scenario blocks a multi-member reserve on its last ledger and
// requires the earlier ledgers to hold nothing while it waits.
func TestLedgerInvariantUnderRandomOps(t *testing.T) {
	const capacity = 1 << 20
	for _, k := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + k)))
			ls := make([]*ledger, k)
			for i := range ls {
				ls[i] = newLedger(fmt.Sprintf("l%d", i), capacity, true, nil)
			}
			type held struct {
				on    []int // ledger index of each hold
				holds []hold
			}
			var live []held
			sums := make([]int64, k) // Σ outstanding reserves per ledger
			check := func(op string) {
				t.Helper()
				for i, l := range ls {
					l.mu.Lock()
					committed, pinned := l.committed, l.pins.Bytes()
					l.mu.Unlock()
					if committed != sums[i]+pinned {
						t.Fatalf("after %s: ledger %d committed %d != reserves %d + pins %d",
							op, i, committed, sums[i], pinned)
					}
					if committed > capacity {
						t.Fatalf("after %s: ledger %d over-committed: %d > %d", op, i, committed, capacity)
					}
				}
			}
			release := func(at int) {
				h := live[at]
				live = append(live[:at], live[at+1:]...)
				for i, li := range h.on {
					ls[li].release(h.holds[i])
					sums[li] -= h.holds[i].bytes
				}
			}

			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // all-or-nothing reserve over a random ordered subset
					on := rng.Perm(k)[:1+rng.Intn(k)]
					members := make([]*ledger, len(on))
					shares := make([]int64, len(on))
					fits := true
					for i, li := range on {
						members[i], shares[i] = ls[li], int64(1+rng.Intn(capacity/3))
						// The sequence is single-threaded, so only issue
						// reserves that cannot block (fits may evict idle
						// pins — itself a ledger operation under test).
						ls[li].mu.Lock()
						fits = ls[li].fits(shares[i]) && fits
						ls[li].mu.Unlock()
					}
					if fits {
						live = append(live, held{on, reserve(members, shares)})
						for i, li := range on {
							sums[li] += shares[i]
						}
					}
					check("reserve")
				case op < 6: // pinned-set grant from a small digest pool, so hits occur
					li := rng.Intn(k)
					r := &sched.Residency{TransientPeakBytes: int64(1 + rng.Intn(capacity/4))}
					for _, d := range rng.Perm(6)[:1+rng.Intn(3)] {
						r.Shareable = append(r.Shareable, sched.ResidentBuf{
							ID: d, Ordinal: d, Bytes: int64(10000 * (d + 1))})
					}
					if h, resident, ok := ls[li].grant(r, "fp"); ok {
						if len(h.pins) != len(r.Shareable) || len(resident) > len(r.Shareable) {
							t.Fatalf("grant holds %d refs, %d resident for %d shareable",
								len(h.pins), len(resident), len(r.Shareable))
						}
						live = append(live, held{[]int{li}, []hold{h}})
						sums[li] += h.bytes
					}
					check("grant")
				case op < 9:
					if len(live) > 0 {
						release(rng.Intn(len(live)))
					}
					check("release")
				default:
					ls[rng.Intn(k)].writeOff()
					check("writeOff")
				}
			}
			for len(live) > 0 {
				release(0)
				check("drain")
			}
			for i, l := range ls {
				if sums[i] != 0 || l.reserved != 0 {
					t.Fatalf("ledger %d: reserves %d (ledger says %d) after drain", i, sums[i], l.reserved)
				}
			}

			// Blocked reserve: a competitor fills the last ledger, so the
			// reserve charges the earlier ones, fails on the last, and must
			// roll back before it sleeps.
			for _, l := range ls {
				l.writeOff()
			}
			last := ls[k-1]
			competitor := reserve([]*ledger{last}, []int64{capacity - 100})
			shares := make([]int64, k)
			for i := range shares {
				shares[i] = 200
			}
			done := make(chan []hold)
			go func() { done <- reserve(ls, shares) }()
			time.Sleep(20 * time.Millisecond) // let the first pass roll back
			for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); {
				select {
				case <-done:
					t.Fatal("reserve returned past a competing hold")
				default:
				}
				for i, l := range ls[:k-1] {
					if got := l.load(); got != 0 {
						t.Fatalf("blocked reserve holds %d bytes on ledger %d", got, i)
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
			last.release(competitor[0])
			select {
			case holds := <-done:
				for i, l := range ls {
					if got := l.load(); got != 200 {
						t.Fatalf("after reserve: ledger %d committed %d", i, got)
					}
					l.release(holds[i])
				}
			case <-time.After(5 * time.Second):
				t.Fatal("reserve never returned after the competing hold released")
			}
		})
	}
}

// residentSink keeps TestLedgerGrantHitAllocs' reference map on the heap,
// where grant's returned resident set lives.
var residentSink map[int]bool

// A grant that hits every pin builds no key or list per shareable buffer:
// beyond the resident set it returns (a map, whose table count Go's
// runtime grows with its size), it allocates as many objects for 1 000
// buffers as for 10.
func TestLedgerGrantHitAllocs(t *testing.T) {
	beyondSet := func(n int) float64 {
		r := &sched.Residency{TransientPeakBytes: 1}
		for i := 0; i < n; i++ {
			r.Shareable = append(r.Shareable, sched.ResidentBuf{ID: i, Ordinal: i, Bytes: 100})
		}
		l := newLedger("d", 1<<30, true, nil)
		h, _, ok := l.grant(r, "fp") // installs every pin
		if !ok {
			t.Fatal("first grant refused")
		}
		l.release(h)
		grant := testing.AllocsPerRun(20, func() {
			h, resident, ok := l.grant(r, "fp")
			if !ok || len(resident) != n {
				t.Fatalf("hit-only grant: ok=%v, %d of %d resident", ok, len(resident), n)
			}
			l.release(h)
		})
		set := testing.AllocsPerRun(20, func() {
			residentSink = make(map[int]bool, n)
			for i := 0; i < n; i++ {
				residentSink[i] = true
			}
		})
		return grant - set
	}
	if small, large := beyondSet(10), beyondSet(1000); small != large {
		t.Fatalf("a hit-only grant allocates %.0f objects beyond its resident set for 10 buffers, %.0f for 1000",
			small, large)
	}
}

// A pin hit whose pinned size differs from the buffer's is a key
// collision, a bookkeeping bug: grant panics as settled does.
func TestLedgerGrantPanicsOnPinSizeMismatch(t *testing.T) {
	l := newLedger("d", 1<<30, true, nil)
	r := &sched.Residency{TransientPeakBytes: 1,
		Shareable: []sched.ResidentBuf{{ID: 3, Name: "w", Ordinal: 0, Bytes: 100}}}
	h, _, ok := l.grant(r, "fp")
	if !ok {
		t.Fatal("first grant refused")
	}
	l.release(h)
	r.Shareable[0].Bytes = 200
	defer func() {
		if recover() == nil {
			t.Fatal("grant accepted a pin of 100 bytes for a 200-byte buffer")
		}
	}()
	l.grant(r, "fp")
}
