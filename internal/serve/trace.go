// Per-job lifecycle tracing. When the pool runs with an observer, every
// job carries a jobTrace recording its typed phase spans as they happen
// — admission (with per-candidate compile attempts), coalesce joins,
// enqueue/dequeue, execution attempts with the device-phase timeline
// (H2D/compute/D2H on the simulated clock, handed off from the exec
// observer fork), migration hops, and the terminal event. Job.Trace
// snapshots it as a serve.JobTrace: the queue and exec phases are
// synthesized at snapshot time from the same timestamps Status uses, so
// a trace's phase durations always sum consistently with the job's
// reported queue-wait and exec times.
//
// With observability off, jobs carry no trace (Trace returns nil) and
// every recording call is a nil-receiver no-op — the pool's behavior,
// stats, and reports are bit-identical.
package serve

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Lifecycle phase names used in JobTrace.Phases.
const (
	// PhaseAdmission covers Submit: breaker check, coalesce probe, and
	// per-candidate compilation until the job is enqueued (or joins an
	// existing batch).
	PhaseAdmission = "admission"
	// PhaseQueue covers admitted-to-started: the time the batch waited
	// for a device stream. Synthesized from the job's timestamps, so its
	// duration equals Status().QueueWaitMS exactly.
	PhaseQueue = "queue"
	// PhaseExec covers started-to-finished; duration equals
	// Status().ExecMS exactly.
	PhaseExec = "exec"
	// PhaseCompile is the admission (or migration) compile on the device
	// that accepted the batch, cache hits included.
	PhaseCompile = "compile"
	// PhaseAttempt is one execution attempt on one device (a migrated
	// job records several); its device-phase timeline is attached as
	// DeviceSpans.
	PhaseAttempt = "attempt"
)

// PhaseSpan is one wall-clock phase of a job's lifecycle. Timestamps
// are milliseconds since the job was submitted.
type PhaseSpan struct {
	Phase   string            `json:"phase"`
	StartMS float64           `json:"start_ms"`
	EndMS   float64           `json:"end_ms"`
	DurMS   float64           `json:"duration_ms"`
	Args    map[string]string `json:"args,omitempty"`
}

// TraceEvent is one instant event of a job's lifecycle (coalesce joins,
// queue transitions, migration hops, the terminal event).
type TraceEvent struct {
	Name string            `json:"name"`
	AtMS float64           `json:"at_ms"`
	Args map[string]string `json:"args,omitempty"`
}

// DeviceSpan is one device-phase interval on the *simulated* clock,
// handed off from the execution's forked observer: DMA transfers and
// kernel launches on their engine tracks, plus recovery actions.
type DeviceSpan struct {
	Track    string  `json:"track"` // dma | compute | recovery
	Name     string  `json:"name"`
	Kind     string  `json:"kind,omitempty"`
	StartSec float64 `json:"start_seconds"`
	EndSec   float64 `json:"end_seconds"`
}

// JobTrace is the exported lifecycle trace of one job.
type JobTrace struct {
	ID          string    `json:"id"`
	Fingerprint string    `json:"fingerprint"`
	State       State     `json:"state"`
	Device      string    `json:"device,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`

	// Phases are the job's wall-clock lifecycle spans; Events the
	// instant marks between them; DeviceSpans the simulated-clock
	// execution timeline of every attempt.
	Phases      []PhaseSpan  `json:"phases"`
	Events      []TraceEvent `json:"events,omitempty"`
	DeviceSpans []DeviceSpan `json:"device_spans,omitempty"`

	// QueueWaitMS and ExecMS repeat the job's reported timings; the
	// queue and exec phase durations above match them exactly.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ExecMS      float64 `json:"exec_ms,omitempty"`
}

// jobTrace is the internal recorder carried by a Job. All methods are
// safe on a nil receiver — a pool without an observer allocates none.
type jobTrace struct {
	mu     sync.Mutex
	epoch  time.Time // the job's submission time
	phases []PhaseSpan
	events []TraceEvent
	device []DeviceSpan
}

func newJobTrace(submitted time.Time) *jobTrace {
	return &jobTrace{epoch: submitted}
}

// shortFP abbreviates a fingerprint for span labels.
func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

func (t *jobTrace) ms(at time.Time) float64 {
	return at.Sub(t.epoch).Seconds() * 1e3
}

// span records one completed wall phase.
func (t *jobTrace) span(phase string, start, end time.Time, args map[string]string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, e := t.ms(start), t.ms(end)
	t.phases = append(t.phases, PhaseSpan{
		Phase: phase, StartMS: s, EndMS: e, DurMS: e - s, Args: args,
	})
}

// mark records one instant event at the current time.
func (t *jobTrace) mark(name string, args map[string]string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, TraceEvent{Name: name, AtMS: t.ms(time.Now()), Args: args})
}

// addExec copies an execution sink's simulated-clock timeline into the
// job trace: Sim-domain spans become DeviceSpans, Sim instants (recovery
// actions) become zero-length DeviceSpans on their track.
func (t *jobTrace) addExec(sink *obs.Tracer) {
	if t == nil || sink == nil {
		return
	}
	spans := sink.Spans()
	instants := sink.Instants()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		if s.Domain != obs.Sim {
			continue
		}
		t.device = append(t.device, DeviceSpan{
			Track: s.Track, Name: s.Name, Kind: s.Cat, StartSec: s.Start, EndSec: s.End,
		})
	}
	for _, in := range instants {
		if in.Domain != obs.Sim {
			continue
		}
		t.device = append(t.device, DeviceSpan{
			Track: in.Track, Name: in.Name, Kind: in.Cat, StartSec: in.TS, EndSec: in.TS,
		})
	}
}

// Trace snapshots the job's lifecycle trace, or nil when the pool runs
// without an observer. The queue and exec phases are synthesized here
// from the same timestamps Status computes its wait/exec from, so their
// durations agree with Status().QueueWaitMS and Status().ExecMS exactly.
func (j *Job) Trace() *JobTrace {
	if j.trace == nil {
		return nil
	}
	j.mu.Lock()
	state, device := j.state, j.placement.Primary()
	submitted, started, finished := j.submitted, j.started, j.finished
	queueDur, execDur := j.timings()
	errText := ""
	if j.err != nil {
		errText = j.err.Error()
	}
	j.mu.Unlock()

	t := j.trace
	t.mu.Lock()
	out := &JobTrace{
		ID:          j.ID,
		Fingerprint: j.Fingerprint,
		State:       state,
		Device:      device,
		SubmittedAt: submitted,
		Phases:      append([]PhaseSpan(nil), t.phases...),
		Events:      append([]TraceEvent(nil), t.events...),
		DeviceSpans: append([]DeviceSpan(nil), t.device...),
	}
	t.mu.Unlock()

	// The queue/exec phases are the timings Status reports, so the phase
	// durations and the reported timings are bit-identical.
	terminal := state == StateDone || state == StateFailed
	out.Phases = append(out.Phases, PhaseSpan{
		Phase: PhaseQueue, StartMS: 0, EndMS: queueDur, DurMS: queueDur})
	out.QueueWaitMS = queueDur
	if !started.IsZero() {
		es := t.ms(started)
		out.Phases = append(out.Phases, PhaseSpan{
			Phase: PhaseExec, StartMS: es, EndMS: es + execDur, DurMS: execDur})
		if terminal {
			out.ExecMS = execDur
		}
	}
	if terminal {
		name := "done"
		var args map[string]string
		if state == StateFailed {
			name = "failed"
			args = map[string]string{"error": errText}
		}
		out.Events = append(out.Events, TraceEvent{Name: name, AtMS: t.ms(finished), Args: args})
	}
	return out
}
