// The pool flight recorder: a bounded ring of structured pool events
// (health transitions, migrations, breaker trips, sheds, deadline
// expiries, probe results, device faults) that is auto-dumped to a JSON
// snapshot the moment a device is quarantined or the breaker trips —
// the record of "what led up to this" that per-request traces can't
// give. Nil when the pool runs without an observer; every method is a
// nil-receiver no-op.
package serve

import (
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/obs"
)

// Flight event kinds recorded by the pool.
const (
	flightHealth   = "health"       // device health transition
	flightMigrate  = "migrate"      // batch migrated between devices
	flightBreaker  = "breaker"      // circuit breaker opened
	flightShed     = "shed"         // request shed at admission
	flightAbort    = "abort"        // queued job aborted (deadline, cancel)
	flightProbe    = "probe"        // quarantine probe result
	flightFault    = "device-fault" // terminal device fault
	flightMigrFail = "migrate-fail" // migration could not re-place jobs
)

// flightRec wraps the obs ring with the pool's dump policy: on a
// quarantine or breaker trip the snapshot is written to dumpPath
// (numbered per dump, so successive incidents don't overwrite each
// other).
type flightRec struct {
	rec      *obs.FlightRecorder
	dumpPath string
	dumps    atomic.Int64
}

func newFlightRec(dumpPath string) *flightRec {
	return &flightRec{rec: obs.NewFlightRecorder(obs.DefaultFlightCapacity), dumpPath: dumpPath}
}

// note records one pool event; detail is alternating key/value pairs.
func (f *flightRec) note(kind string, detail ...string) {
	if f == nil {
		return
	}
	var m map[string]string
	if len(detail) > 0 {
		m = make(map[string]string, len(detail)/2)
		for i := 0; i+1 < len(detail); i += 2 {
			m[detail[i]] = detail[i+1]
		}
	}
	f.rec.Record(kind, m)
}

// snapshot returns the ring contents (zero value when nil).
func (f *flightRec) snapshot() obs.FlightSnapshot {
	if f == nil {
		return obs.FlightSnapshot{}
	}
	return f.rec.Snapshot()
}

// dump writes the ring to the configured path on an incident; the
// trigger is recorded first so the snapshot explains itself. No-op
// without a dump path.
func (f *flightRec) dump(trigger string) {
	if f == nil {
		return
	}
	f.note("dump", "trigger", trigger)
	if f.dumpPath == "" {
		return
	}
	n := f.dumps.Add(1)
	path := f.dumpPath
	if n > 1 {
		path = fmt.Sprintf("%s.%d", f.dumpPath, n)
	}
	w, err := os.Create(path)
	if err != nil {
		return
	}
	defer w.Close()
	_ = f.rec.WriteJSON(w)
}
