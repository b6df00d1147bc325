package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// numBlocks is how many equal blocks of ops the timed phase is cut into.
// Block medians feed only the disturbance diagnostics (harness.*); the
// reported percentiles pool every op.
const numBlocks = 8

// opStats is what one op executed on the simulated device.
type opStats struct {
	ModeledSeconds float64
	TransferFloats int64
	PeakBytes      int64
}

// opFunc runs op i of one client and returns its wall latency, measured
// by the op itself so that its correctness checks sit outside the clock.
// A nil tracer is a plain op; with a tracer the op records spans around
// the layer calls it makes. An error is a failed op.
type opFunc func(client, i int, tr *tracer) (ms float64, st opStats, err error)

// counters are the process-wide totals the per-op costs are deltas of.
type counters struct {
	cpuS       float64 // getrusage(RUSAGE_SELF) user+sys
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
	gcCPUS     float64 // runtime/metrics estimate, updated per GC cycle
}

func readCounters() counters {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	c := counters{
		cpuS: float64(ru.Utime.Sec+ru.Stime.Sec) +
			float64(ru.Utime.Usec+ru.Stime.Usec)/1e6,
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPauseNS: ms.PauseTotalNs,
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPUS = gc[0].Value.Float64()
	}
	return c
}

func (c *counters) addDelta(from, to counters) {
	c.cpuS += to.cpuS - from.cpuS
	c.mallocs += to.mallocs - from.mallocs
	c.allocBytes += to.allocBytes - from.allocBytes
	c.gcCycles += to.gcCycles - from.gcCycles
	c.gcPauseNS += to.gcPauseNS - from.gcPauseNS
	c.gcCPUS += to.gcCPUS - from.gcCPUS
}

var calibSink uint64

// calibrate times a fixed arithmetic loop (~2 ms) that touches no memory
// and calls nothing: when it slows down, the box did, not the program.
func calibrate() float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		runs = append(runs, msSince(t0))
	}
	return median(runs)
}

func msSince(t time.Time) float64 { return time.Since(t).Seconds() * 1e3 }

// phase is the outcome of the timed phase.
type phase struct {
	attempted, failed int
	plainMS, tracedMS []float64 // latencies of the ops that succeeded
	blockMedians      []float64 // plain blocks only
	calibMS           []float64 // one per block
	plainOps          int       // ops attempted in plain blocks
	timedS            float64   // wall seconds of the plain blocks
	cost              counters  // deltas over the plain blocks
	modeledS          float64   // sums over every op that succeeded
	transferFloats    int64
	peakBytes         int64 // max
}

// runPhase runs opsPerClient ops on each of clients goroutines, closed
// loop, in numBlocks blocks. All clients finish a block before the next
// starts; between blocks the calibration loop runs. With traced set, odd
// blocks run traced ops and after() then runs that workload's untimed
// side measurements; process counters are taken around plain blocks only,
// so per-op costs never include tracing or calibration.
func runPhase(clients, opsPerClient int, traced bool, tr *tracer, op opFunc,
	after func(block int, tr *tracer) error, stderr io.Writer) (*phase, error) {

	type record struct {
		ms     float64
		st     opStats
		ok     bool
		traced bool
	}
	recs := make([]record, clients*opsPerClient)
	ph := &phase{}
	for b, bounds := range blockBounds(opsPerClient, numBlocks) {
		if bounds[0] == bounds[1] {
			continue // fewer ops than blocks
		}
		blockTraced := traced && b%2 == 1
		var blockTr *tracer
		if blockTraced {
			blockTr = tr
		}
		var before counters
		if !blockTraced {
			before = readCounters()
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		var mu sync.Mutex // guards failure reporting
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := bounds[0]; i < bounds[1]; i++ {
					ms, st, err := op(c, i, blockTr)
					if err != nil {
						mu.Lock()
						fmt.Fprintf(stderr, "FAILED op %d of client %d: %v\n", i, c, err)
						mu.Unlock()
					}
					recs[c*opsPerClient+i] = record{ms, st, err == nil, blockTraced}
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(t0).Seconds()
		n := clients * (bounds[1] - bounds[0])
		if !blockTraced {
			ph.cost.addDelta(before, readCounters())
			ph.timedS += wall
			ph.plainOps += n
			var lat []float64
			for c := 0; c < clients; c++ {
				for i := bounds[0]; i < bounds[1]; i++ {
					if r := recs[c*opsPerClient+i]; r.ok {
						lat = append(lat, r.ms)
					}
				}
			}
			if len(lat) > 0 {
				ph.blockMedians = append(ph.blockMedians, median(lat))
			}
		} else if err := after(b, tr); err != nil {
			return nil, fmt.Errorf("side measurements after block %d: %w", b, err)
		}
		ph.calibMS = append(ph.calibMS, calibrate())
	}
	// Sum in index order, not completion order, so the float total is the
	// same on every run of one seed.
	for _, r := range recs {
		ph.attempted++
		if !r.ok {
			ph.failed++
			continue
		}
		if r.traced {
			ph.tracedMS = append(ph.tracedMS, r.ms)
		} else {
			ph.plainMS = append(ph.plainMS, r.ms)
		}
		ph.modeledS += r.st.ModeledSeconds
		ph.transferFloats += r.st.TransferFloats
		if r.st.PeakBytes > ph.peakBytes {
			ph.peakBytes = r.st.PeakBytes
		}
	}
	return ph, nil
}

// liveHeapMB is the heap the process still holds after two collections:
// the first may leave finalizer-held and swept-late objects to the second.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
