package serve

import (
	"context"
	"sync"
	"time"

	"repro/internal/exec"
)

// State is a job's position in its lifecycle.
type State string

const (
	StateQueued  State = "queued"  // admitted, waiting for a device stream
	StateRunning State = "running" // a device stream is executing its batch
	StateDone    State = "done"    // finished; report available
	StateFailed  State = "failed"  // rejected at dequeue or failed executing
)

// Job is one admitted request. The pool returns it from Submit
// immediately; Wait blocks until a device stream finishes (or fails) it,
// and Status snapshots it without blocking — the HTTP layer's poll path.
type Job struct {
	// ID is the pool-unique identifier ("job-17").
	ID string
	// Fingerprint is the canonical hash of the submitted graph — the
	// coalescing key.
	Fingerprint string

	inputs   exec.Inputs
	deadline time.Time       // zero = none
	reqCtx   context.Context // per-job caller context (never nil)
	pool     *Pool

	done       chan struct{}
	cancelOnce sync.Once
	cancelCh   chan struct{}

	// trace is the job's lifecycle recorder (nil when the pool runs
	// without an observer; see trace.go). Its own mutex guards it.
	trace *jobTrace

	mu        sync.Mutex
	state     State
	rep       *exec.Report
	prep      *exec.PartitionReport // per-part detail of a gang execution
	err       error
	placement Placement // device set + per-device bytes (updated on migration)
	batch     *batch    // admitted batch; nil once started (pool.mu guards)
	batchSize int
	cacheHit  bool
	coalesced bool
	migrated  int // times the job's batch was migrated to another device
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Wait blocks until the job finishes and returns its report, the job's
// own failure, or ctx's error if the caller gives up first (the job keeps
// running; poll Status or Wait again).
func (j *Job) Wait(ctx context.Context) (*exec.Report, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-j.done:
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rep, j.err
}

// Cancel withdraws the job: a queued job fails immediately with
// ErrCancelled and frees its queue slot; an in-flight job's execution
// context is cancelled and the job fails once the executor unwinds (the
// device stays pristine). Finished jobs are unaffected. Idempotent and
// safe for concurrent use.
func (j *Job) Cancel() {
	j.cancelOnce.Do(func() {
		close(j.cancelCh)
		if j.pool != nil {
			j.pool.abortQueued(j, ErrCancelled, "cancelled")
		}
	})
}

// cancelled reports whether Cancel was called or the caller's Request.Ctx
// expired.
func (j *Job) cancelled() bool {
	select {
	case <-j.cancelCh:
		return true
	default:
	}
	return j.reqCtx.Err() != nil
}

// cancelSignal returns a channel closed when the job is cancelled either
// way (Cancel or Request.Ctx). The second return stops the bridge
// goroutine; always call it.
func (j *Job) cancelSignal() (<-chan struct{}, func()) {
	if j.reqCtx.Done() == nil {
		return j.cancelCh, func() {}
	}
	ch := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		select {
		case <-j.cancelCh:
		case <-j.reqCtx.Done():
		case <-stop:
		}
		close(ch)
	}()
	return ch, func() { close(stop) }
}

// terminal reports whether the job already finished (done or failed).
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed
}

// Report returns the finished job's report (nil until StateDone). For a
// gang job this is the combined per-part aggregate
// (exec.PartitionReport.Combined); Partition has the per-part detail.
func (j *Job) Report() *exec.Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rep
}

// Partition returns the per-part report of a job executed as a
// cross-device gang (nil for single-device jobs or until StateDone).
func (j *Job) Partition() *exec.PartitionReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.prep
}

// Placement returns where the job's memory is (or was) placed: one
// device for an ordinary job, the member set of a gang. Zero value
// until admission places the job.
func (j *Job) Placement() Placement {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.placement
}

// Err returns the failure of a StateFailed job (nil otherwise or while
// still in flight).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Status is a point-in-time snapshot of a job, shaped for JSON.
type Status struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	State       State  `json:"state"`
	Error       string `json:"error,omitempty"`

	// Device is the job's primary pool device — its only device for a
	// single-device placement, the gang leader otherwise (updated when
	// quarantine migration re-places the job).
	Device string `json:"device"`
	// Placement is the job's full typed placement: the device set plus
	// the bytes reserved on each, reported uniformly for single- and
	// multi-device jobs (one entry vs. one per gang member).
	Placement Placement `json:"placement"`
	// GangParts is how many devices the job's partitioned execution
	// spanned (0 for ordinary single-device jobs).
	GangParts int `json:"gang_parts,omitempty"`
	// BatchSize is how many coalesced jobs shared the batch (1 = alone);
	// set when the batch starts.
	BatchSize int `json:"batch_size,omitempty"`
	// CacheHit reports whether admission reused a cached compiled plan.
	CacheHit bool `json:"cache_hit"`
	// Coalesced reports whether the job joined an already-queued batch
	// for the same fingerprint (no compile or admission of its own).
	Coalesced bool `json:"coalesced"`
	// Migrated counts how many times the job was re-placed onto another
	// device after its original device was quarantined.
	Migrated int `json:"migrated,omitempty"`

	QueueWaitMS float64 `json:"queue_wait_ms"`
	ExecMS      float64 `json:"exec_ms,omitempty"`
	// ModeledSeconds is the simulated device time of the execution —
	// machine-independent, unlike the wall-clock fields.
	ModeledSeconds float64 `json:"modeled_seconds,omitempty"`
	// Recovered reports that the execution needed fault recovery
	// (retries, checkpoint replays, or replans) to complete.
	Recovered bool `json:"recovered,omitempty"`
}

// Status snapshots the job without blocking.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID:          j.ID,
		Fingerprint: j.Fingerprint,
		State:       j.state,
		Device:      j.placement.Primary(),
		Placement:   j.placement,
		BatchSize:   j.batchSize,
		CacheHit:    j.cacheHit,
		Coalesced:   j.coalesced,
		Migrated:    j.migrated,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	s.QueueWaitMS, s.ExecMS = j.timings()
	if j.state == StateRunning {
		s.ExecMS = 0 // reported once the job ends
	}
	if j.rep != nil {
		s.ModeledSeconds = j.rep.Stats.TotalTime()
		if j.rep.Recovery != nil && !j.rep.Recovery.Clean() {
			s.Recovered = true
		}
	}
	if j.prep != nil {
		// A gang's combined Stats.TotalTime sums device-seconds across
		// members; the joined makespan is the meaningful duration.
		s.GangParts = len(j.prep.Parts)
		s.ModeledSeconds = j.prep.Makespan
	}
	return s
}

// timings returns the job's queue wait and execution time in milliseconds
// (j.mu held); execution time runs on while the job is in flight. Status
// and Trace both report these, so the two agree exactly.
func (j *Job) timings() (queueMS, execMS float64) {
	switch {
	case j.state == StateQueued:
		return time.Since(j.submitted).Seconds() * 1e3, 0
	case j.started.IsZero(): // died in the queue
		return j.finished.Sub(j.submitted).Seconds() * 1e3, 0
	case j.state == StateRunning:
		return j.started.Sub(j.submitted).Seconds() * 1e3, time.Since(j.started).Seconds() * 1e3
	}
	return j.started.Sub(j.submitted).Seconds() * 1e3, j.finished.Sub(j.started).Seconds() * 1e3
}

// start transitions the job to running as its batch is picked up; false
// when the job already finished (expired or cancelled eagerly).
func (j *Job) start(batchSize int, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return false
	}
	j.state = StateRunning
	j.batchSize = batchSize
	j.started = now
	return true
}

// setPlacement records where the job is (re-)placed; migration bumps
// the counter.
func (j *Job) setPlacement(pl Placement, migration bool) {
	j.mu.Lock()
	j.placement = pl
	if migration {
		j.migrated++
	}
	j.mu.Unlock()
}

// conclude records the job's terminal state — done (err == nil) or failed —
// at this instant; prep carries the per-part detail of a partitioned
// execution (nil otherwise). The first caller wins; false means the job was
// already terminal. Waiters stay asleep until the winner publishes.
func (j *Job) conclude(rep *exec.Report, prep *exec.PartitionReport, err error) bool {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		j.mu.Unlock()
		return false
	}
	j.rep = rep
	j.prep = prep
	j.err = err
	if err != nil {
		j.state = StateFailed
	} else {
		j.state = StateDone
	}
	j.finished = time.Now()
	j.mu.Unlock()
	return true
}

// publish wakes the job's waiters. The caller whose conclude won calls it
// exactly once, after the pool's queues, ledgers and counters reflect the
// job.
func (j *Job) publish() { close(j.done) }
