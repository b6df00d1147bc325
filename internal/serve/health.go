// Per-device health tracking and the pool-level circuit breaker.
//
// Every execution outcome feeds a per-device state machine:
//
//	healthy ──dirty success──▶ degraded ──fault streak──▶ quarantined
//	   ▲                          │                           │
//	   │◀──── clean streak ───────┘                     probe succeeds
//	   │                                                      ▼
//	   └────────── first clean execution ──────────────── recovered
//
// A "dirty success" is an execution that completed only through recovery
// (retries, checkpoint replays, replans); a terminal device fault
// (exec.IsDeviceFault) jumps straight to quarantined from any state.
// Quarantined devices take no placements; the pool drains their queue
// onto healthy devices and re-probes them on an interval until a probe
// job runs clean, which returns them to rotation as recovered. Every
// transition is recorded as an obs wall instant and a serve metric.
package serve

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Health is a pool device's position in the fault-tolerance lifecycle.
type Health int

// Health states, ordered by severity for the numeric state gauge.
const (
	// Healthy devices take placements and have shown no recent faults.
	Healthy Health = iota
	// Degraded devices still take placements but needed recovery
	// recently; further faults escalate to quarantine, a clean streak
	// returns them to healthy.
	Degraded
	// Quarantined devices take no placements: a terminal device fault
	// (or a sustained fault streak) removed them from rotation, their
	// queue was migrated, and only a successful probe readmits them.
	Quarantined
	// Recovered devices are back in rotation after probation: the first
	// clean execution promotes them to healthy, any fault demotes again.
	Recovered
)

func (h Health) String() string {
	switch h {
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	case Recovered:
		return "recovered"
	}
	return "healthy"
}

// HealthPolicy sets the state machine's thresholds and the probe cadence.
// The zero value of any field means its default.
type HealthPolicy struct {
	// QuarantineAfter is the consecutive dirty-execution streak that
	// escalates a degraded device to quarantined (default 3). Terminal
	// device faults quarantine immediately regardless.
	QuarantineAfter int
	// ProbeInterval is how often a quarantined device is re-probed
	// (default 100ms); it is also the Retry-After hint when the pool
	// sheds load because no device is in rotation.
	ProbeInterval time.Duration
}

const (
	// recoverAfter is the consecutive clean-execution streak that returns
	// a degraded device to healthy.
	recoverAfter = 2
	// maxMigrations bounds how many times one batch may be migrated
	// between devices before its jobs fail with the causing error.
	maxMigrations = 3
)

func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.QuarantineAfter <= 0 {
		p.QuarantineAfter = 3
	}
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = 100 * time.Millisecond
	}
	return p
}

// healthTracker is one device's state machine. Transitions are driven by
// the worker streams (execution outcomes) and the prober; it has its own
// lock so health checks never contend with memory reservation.
type healthTracker struct {
	device string
	policy HealthPolicy
	obs    *obs.Observer
	flight *flightRec

	mu          sync.Mutex
	state       Health
	faultStreak int // consecutive executions needing recovery
	cleanStreak int // consecutive clean executions
	quarantines int64
}

func newHealthTracker(device string, policy HealthPolicy, o *obs.Observer, f *flightRec) *healthTracker {
	h := &healthTracker{device: device, policy: policy, obs: o, flight: f}
	metricGauge(o, metricHealthState, float64(Healthy), "device", device)
	return h
}

func (h *healthTracker) current() Health {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// inRotation reports whether the device may take placements.
func (h *healthTracker) inRotation() bool { return h.current() != Quarantined }

// transition records a state change (caller holds h.mu).
func (h *healthTracker) transition(to Health, reason string) {
	from := h.state
	if from == to {
		return
	}
	h.state = to
	if to == Quarantined {
		h.quarantines++
	}
	metricInc(h.obs, metricHealthTransition,
		"device", h.device, "from", from.String(), "to", to.String())
	metricGauge(h.obs, metricHealthState, float64(to), "device", h.device)
	h.obs.T().MarkWall("health:"+from.String()+"->"+to.String(), "serve", map[string]string{
		"device": h.device,
		"reason": reason,
	})
	h.flight.note(flightHealth,
		"device", h.device, "from", from.String(), "to", to.String(), "reason", reason)
	if to == Quarantined {
		// Quarantine is an incident: dump the flight ring so the lead-up
		// survives even if the process dies before anyone asks.
		h.flight.dump("quarantine:" + h.device)
	}
}

// noteClean records an execution that needed no recovery.
func (h *healthTracker) noteClean() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.faultStreak = 0
	h.cleanStreak++
	switch h.state {
	case Recovered:
		h.transition(Healthy, "clean execution after probation")
	case Degraded:
		if h.cleanStreak >= recoverAfter {
			h.transition(Healthy, "clean streak")
		}
	}
}

// noteDirty records an execution that completed only through recovery
// (retries, replays, replans absorbed in place).
func (h *healthTracker) noteDirty() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cleanStreak = 0
	h.faultStreak++
	switch h.state {
	case Healthy, Recovered:
		h.transition(Degraded, "execution needed recovery")
	case Degraded:
		if h.faultStreak >= h.policy.QuarantineAfter {
			h.transition(Quarantined, "sustained fault streak")
		}
	}
}

// quarantine escalates immediately (terminal device fault). It reports
// whether this call performed the transition, so exactly one caller
// drains the queue and starts the prober.
func (h *healthTracker) quarantine(reason string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == Quarantined {
		return false
	}
	h.cleanStreak = 0
	h.faultStreak = 0
	h.transition(Quarantined, reason)
	return true
}

// probeResult feeds a probe-job outcome; a clean probe readmits the
// device as recovered and returns true (the prober stops).
func (h *healthTracker) probeResult(clean bool) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != Quarantined {
		return true
	}
	if clean {
		h.transition(Recovered, "probe succeeded")
		return true
	}
	return false
}

func (h *healthTracker) quarantineCount() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quarantines
}

// breaker is the pool-level circuit breaker: a run of consecutive
// terminal job failures (executions the pool could neither absorb nor
// migrate) opens it for a cooldown, during which Submit sheds load with
// ErrRetryAfter instead of queueing work that is likely to die. Deadline
// expiries and cancellations are the caller's doing and do not count.
type breaker struct {
	threshold int
	cooldown  time.Duration
	obs       *obs.Observer
	flight    *flightRec

	mu        sync.Mutex
	failures  int // consecutive terminal failures
	openUntil time.Time
	opens     int64
}

// The breaker opens after breakerThreshold consecutive terminal failures
// and stays open for breakerCooldown.
const (
	breakerThreshold = 8
	breakerCooldown  = 2 * time.Second
)

func newBreaker(threshold int, cooldown time.Duration, o *obs.Observer, f *flightRec) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, obs: o, flight: f}
}

// allow reports whether the breaker admits traffic; when open it returns
// the remaining cooldown as the Retry-After hint.
func (b *breaker) allow() (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if wait := time.Until(b.openUntil); wait > 0 {
		return false, wait
	}
	return true, 0
}

func (b *breaker) recordSuccess() {
	b.mu.Lock()
	b.failures = 0
	b.mu.Unlock()
}

func (b *breaker) recordFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.failures < b.threshold || time.Now().Before(b.openUntil) {
		return
	}
	b.openUntil = time.Now().Add(b.cooldown)
	b.opens++
	b.failures = 0
	metricInc(b.obs, metricBreakerOpen)
	metricGauge(b.obs, metricBreakerState, 1)
	b.obs.T().MarkWall("breaker:open", "serve", map[string]string{
		"cooldown": b.cooldown.String(),
	})
	b.flight.note(flightBreaker, "cooldown", b.cooldown.String())
	b.flight.dump("breaker-open")
}

// snapshot reports (open, opens-so-far) for Stats.
func (b *breaker) snapshot() (bool, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	open := time.Now().Before(b.openUntil)
	if !open {
		metricGauge(b.obs, metricBreakerState, 0)
	}
	return open, b.opens
}
