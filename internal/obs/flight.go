package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// FlightRecorder is a bounded ring buffer of structured events — the
// "what just happened" record a serving pool dumps when something goes
// wrong (a quarantine, a breaker trip) long after the interesting events
// scrolled past. Recording is cheap and lock-bounded; the buffer holds
// the most recent Capacity events and counts what it dropped. All
// methods are safe on a nil *FlightRecorder and do nothing.
type FlightRecorder struct {
	mu      sync.Mutex
	epoch   time.Time
	cap     int
	buf     []FlightEvent // ring, ordered by seq modulo cap
	seq     int64         // next sequence number
	dropped int64
}

// FlightEvent is one recorded event.
type FlightEvent struct {
	// Seq is the monotonically increasing event number; gaps at the
	// front of a snapshot mean the ring wrapped.
	Seq int64 `json:"seq"`
	// AtSec is seconds since the recorder was created.
	AtSec float64 `json:"at_seconds"`
	// Kind is the event type ("health", "migrate", "breaker", "shed",
	// "deadline", "probe", "device-fault", ...).
	Kind   string            `json:"kind"`
	Detail map[string]string `json:"detail,omitempty"`
}

// DefaultFlightCapacity is the ring size the serving pool records into.
const DefaultFlightCapacity = 256

// NewFlightRecorder returns a recorder holding the most recent capacity
// events; capacity must be positive.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return &FlightRecorder{epoch: time.Now(), cap: capacity}
}

// Record appends one event, evicting the oldest when the ring is full.
func (f *FlightRecorder) Record(kind string, detail map[string]string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ev := FlightEvent{
		Seq:    f.seq,
		AtSec:  time.Since(f.epoch).Seconds(),
		Kind:   kind,
		Detail: detail,
	}
	if len(f.buf) < f.cap {
		f.buf = append(f.buf, ev)
	} else {
		f.buf[f.seq%int64(f.cap)] = ev
		f.dropped++
	}
	f.seq++
}

// FlightSnapshot is the encodable state of the recorder.
type FlightSnapshot struct {
	Capacity int   `json:"capacity"`
	Recorded int64 `json:"recorded"`
	// Dropped counts events evicted by the ring; Events holds the
	// survivors in sequence order.
	Dropped int64         `json:"dropped"`
	Events  []FlightEvent `json:"events"`
}

// Snapshot copies the ring contents in sequence order.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	if f == nil {
		return FlightSnapshot{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := FlightSnapshot{
		Capacity: f.cap,
		Recorded: f.seq,
		Dropped:  f.dropped,
		Events:   make([]FlightEvent, 0, len(f.buf)),
	}
	if len(f.buf) < f.cap {
		s.Events = append(s.Events, f.buf...)
		return s
	}
	// The ring wrapped: the oldest surviving event sits at seq % cap.
	start := f.seq % int64(f.cap)
	for i := 0; i < f.cap; i++ {
		s.Events = append(s.Events, f.buf[(start+int64(i))%int64(f.cap)])
	}
	return s
}

// WriteJSON encodes the snapshot as indented JSON.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Snapshot())
}
