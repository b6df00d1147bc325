// Package serve is the concurrent serving layer over the compiler and
// executor: a pool of simulated devices with mixed memory capacities,
// bounded per-device queues with footprint-aware admission control,
// fingerprint-keyed request coalescing, and pool-level fault tolerance.
//
// Admission is grounded in the compiled artifact: Submit compiles the
// template for a candidate device (through the per-device core.Service,
// so identical templates share one compile via the single-flight plan
// cache) and admits the job only where the plan's peak residency fits the
// device. A placement is k ≥ 1 member devices: templates no single device
// can host are placed as a cross-device gang — compiled partitioned
// across the in-rotation fleet and admitted on all members atomically —
// and WithGangPlacement prefers the gang up front whenever a working set
// exceeds the largest device's memory. One path serves every k (see
// placement.go). A full queue is backpressure (ErrQueueFull); a template
// no placement can host — no single device and no partition — surfaces
// core.ErrInfeasible. Identical-fingerprint requests waiting on the same
// device coalesce into one batch that is compiled and memory-reserved
// once.
//
// Execution is per-device worker streams: each stream pops a batch,
// reserves every member's share against that device's physical memory
// (ledger.go), expires or cancels dead jobs, and runs the rest through
// core.Service — under the resilient executor (exec.Options.Resilient)
// for a single-device placement. Transient faults are absorbed in place;
// a terminal device fault (device loss, a persistent fault the executor
// could not replay around) quarantines the device, drains its queue, and
// migrates the un-started batches onto healthy devices — recompiled for
// the new target through its plan cache, re-checked against its memory.
// Quarantined devices are re-probed on an interval and return to
// rotation once a probe job runs clean (see health.go for the state
// machine). A pool-level circuit breaker sheds load with ErrRetryAfter
// when jobs are dying faster than the pool can absorb.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Request is one unit of serving work: a template graph plus optional
// materialized inputs (nil Inputs = accounting mode, the plan is replayed
// without data) and an optional per-job deadline overriding the pool
// default. The graph is compiled on a clone and never mutated by the
// pool; the caller must not mutate it after Submit either (quarantine
// migration recompiles it for the replacement device).
type Request struct {
	Graph  *graph.Graph
	Inputs exec.Inputs
	// Deadline bounds queue wait: a job not started this long after
	// submission fails with ErrDeadlineExceeded. Zero uses the pool
	// default; negative means no deadline.
	Deadline time.Duration
	// Ctx, when non-nil, is the job's caller context: its cancellation
	// propagates into the queued or in-flight execution exactly like
	// Job.Cancel (the job fails with ErrCancelled). For a coalesced
	// batch the shared execution is cancelled only when every member
	// job's context is cancelled.
	Ctx context.Context
}

// batch is the queue unit: one compiled placement plus every coalesced job
// sharing it. Memory is reserved once per batch, not per job.
type batch struct {
	fp         string
	graph      *graph.Graph // original template; migration recompiles it
	accounting bool
	moved      move      // how the batch came to be placed
	enqueuedAt time.Time // when the batch entered its leader's queue (trace lane)

	// The placement: members lists the k ≥ 1 devices it spans (partition-
	// part order for k > 1), parallel to art.shares; leader is the member
	// whose queue holds the batch and whose worker stream drives it; pl is
	// the same placement as reported on job status.
	leader  *device
	members []*device
	art     *artifact
	pl      Placement

	// jobs and started are guarded by the pool mutex: Submit appends
	// only while !started; a worker sets started before snapshotting.
	jobs    []*Job
	started bool

	// Worker-local once taken (no extra locking): the admitting leader
	// stream; what the batch holds on each member's ledger (parallel to
	// members, set by admit, returned by release); the buffer IDs whose H2D
	// the executor elides (pin hits of a pinned-set grant only — fresh pins
	// are paid for by this batch's own upload); and the jobs settled on the
	// batch's behalf, which release publishes.
	stream    int
	holds     []hold
	resident  map[int]bool
	concluded []*Job
}

// move is how a batch came to be placed: the zero value for a fresh
// submission, otherwise the device its jobs left, why, and how many
// placements have given up on them so far.
type move struct {
	from  *device
	cause error
	count int
}

// queued charges (sign +1) or returns (-1) every member's share on its
// queued-bytes load signal.
func (b *batch) queued(sign int64) {
	for i, m := range b.members {
		m.queuedBytes.Add(sign * b.art.shares[i])
	}
}

// sick returns the first member no longer in rotation — a placement is
// only as healthy as its sickest member — or nil when all are.
func (b *batch) sick() *device {
	for _, m := range b.members {
		if !m.health.inRotation() {
			return m
		}
	}
	return nil
}

// device is one pool member: its spec, its core.Service (own plan cache,
// shared observer), its bounded queue, its health tracker, and its
// admission ledger.
type device struct {
	spec gpu.Spec
	svc  *core.Service

	queue       *devQueue
	queuedBytes atomic.Int64 // enqueued-not-started shares (load signal)
	health      *healthTracker
	ledger      *ledger

	mu        sync.Mutex // guards the counters and stream clocks below
	completed int64
	failed    int64

	// Residency-modeled transfer accounting across completed jobs:
	// charged vs actual (elided) H2D float volumes, and the rolling-
	// admission overlap claimed against predecessors' compute tails.
	h2dCharged   int64
	h2dActual    int64
	elidedFloats int64
	rollSec      float64
	// streamTail[s] is the modeled compute tail (after the last H2D) of
	// the batch most recently completed on stream s — the window the
	// next batch's lead prefetches overlap into (nil with residency off).
	streamTail []float64
	// migration accounting: jobs moved off this device (queue drained on
	// quarantine or in-flight escalation) and onto it.
	migratedOut int64
	migratedIn  int64
	probes      int64
	// streamClock is the modeled simulated-time clock per worker stream:
	// each execution advances its leader's stream by the outcome's span.
	// The max across all pool streams is the modeled makespan.
	streamClock []float64
	// gangSec is modeled time this device spent as a non-leading member —
	// busy executing a partition part without occupying one of its own
	// worker streams (the leader's stream carries the makespan).
	gangSec float64
}

func (d *device) load() int64 { return d.ledger.load() + d.queuedBytes.Load() }

// poolConfig collects the PoolOption knobs.
type poolConfig struct {
	devices     []gpu.Spec
	queueDepth  int
	streams     int
	maxBatch    int
	deadline    time.Duration
	obs         *obs.Observer
	serviceOpts []core.Option
	faults      map[string]*gpu.Injector
	health      HealthPolicy
	// breakThresh and breakCool are breakerThreshold and breakerCooldown
	// outside tests.
	breakThresh int
	breakCool   time.Duration
	flightDump  string
	residency   bool
	gangFirst   bool
	// gate, when non-nil, is received from by every worker stream before
	// it dequeues — a test hook that freezes dequeue so tests can fill
	// queues and coalesce deterministically. Close the channel to open.
	gate chan struct{}
}

// PoolOption configures NewPool.
type PoolOption func(*poolConfig)

// WithDevices sets the pool's device fleet (default: one Tesla C870).
func WithDevices(specs ...gpu.Spec) PoolOption {
	return func(c *poolConfig) { c.devices = specs }
}

// WithQueueDepth bounds each device's queue to n batches (default 64).
func WithQueueDepth(n int) PoolOption {
	return func(c *poolConfig) { c.queueDepth = n }
}

// WithStreams runs n concurrent executor streams per device (default 2) —
// concurrent batches on one device share its physical memory through the
// footprint reservation.
func WithStreams(n int) PoolOption {
	return func(c *poolConfig) { c.streams = n }
}

// WithMaxBatch bounds fingerprint coalescing to n jobs per batch
// (default 8).
func WithMaxBatch(n int) PoolOption {
	return func(c *poolConfig) { c.maxBatch = n }
}

// WithDefaultDeadline sets the queue-wait deadline applied to requests
// that don't carry their own (default: none).
func WithDefaultDeadline(d time.Duration) PoolOption {
	return func(c *poolConfig) { c.deadline = d }
}

// WithObserver threads the observability layer through the pool: serving
// metrics plus every compile and execution the pool runs.
func WithObserver(o *obs.Observer) PoolOption {
	return func(c *poolConfig) { c.obs = o }
}

// WithServiceOptions forwards extra core options (planner, capacity,
// pipeline, faults...) to every per-device service. The pool still owns
// WithDevice and WithObserver.
func WithServiceOptions(opts ...core.Option) PoolOption {
	return func(c *poolConfig) { c.serviceOpts = append(c.serviceOpts, opts...) }
}

// WithDeviceFaults installs a deterministic fault injector on one named
// device: every execution (and probe) the pool runs on that device draws
// its fault schedule from inj. This is the chaos harness's wiring — each
// device gets its own seeded injector so fault schedules are scripted
// per device, not pool-wide.
func WithDeviceFaults(device string, inj *gpu.Injector) PoolOption {
	return func(c *poolConfig) {
		if c.faults == nil {
			c.faults = make(map[string]*gpu.Injector)
		}
		c.faults[device] = inj
	}
}

// WithResidency enables cross-job residency reuse and rolling admission:
// each device pins the read-only-shareable buffers of the templates it
// serves (keyed by fingerprint prefix + buffer digest) across job
// teardown, elides their H2D replay from the modeled actual clock,
// prefers placing a fingerprint on the device already holding its pinned
// set, and overlaps a batch's lead prefetches with the previous batch's
// compute tail on the same stream. Pinned bytes are charged to the
// committed-bytes ledger and evicted LRU when admission needs room, so
// admission can never over-subscribe memory. Off by default: without
// this option pool behavior and stats are unchanged.
func WithResidency() PoolOption {
	return func(c *poolConfig) { c.residency = true }
}

// WithGangPlacement prefers gang placement for oversized templates: a
// job whose whole working set exceeds the largest in-rotation device's
// memory is partitioned across the pool up front — aggregate memory and
// concurrently running parts — instead of paging through one card's
// bus. Off by default: without this option a job gangs only as the last
// resort before admission would report core.ErrInfeasible, so
// single-device placement (and its charged stats) is unchanged for
// every template one device can host.
func WithGangPlacement() PoolOption {
	return func(c *poolConfig) { c.gangFirst = true }
}

// WithHealthPolicy overrides the health state machine thresholds and the
// quarantine probe cadence (zero fields keep their defaults).
func WithHealthPolicy(hp HealthPolicy) PoolOption {
	return func(c *poolConfig) { c.health = hp }
}

// WithFlightDump sets the path the flight ring is snapshotted to when a
// device is quarantined or the breaker trips (successive incidents get
// numbered suffixes). Without it, incident dumps only add a marker event
// and the ring stays query-only. The recorder runs whenever the pool has
// an observer; this option also enables it without one.
func WithFlightDump(path string) PoolOption {
	return func(c *poolConfig) { c.flightDump = path }
}

// Pool is the serving front end. Safe for concurrent use.
type Pool struct {
	cfg     poolConfig
	devices []*device
	obs     *obs.Observer
	breaker *breaker
	slo     *sloBoard  // per-fingerprint SLO histograms (nil without observer)
	flight  *flightRec // pool flight recorder (nil when fully disabled)

	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	pending map[string]*batch // un-started batch per fingerprint (coalescing)
	jobs    map[string]*Job
	nextID  atomic.Int64

	gangs gangTally // see GangStats

	// Eager deadline expiry: a min-heap of queued jobs by deadline and a
	// sweeper goroutine that frees their queue slots the moment they
	// expire (see deadline.go).
	dlMu   sync.Mutex
	dl     jobHeap
	dlKick chan struct{}
}

// NewPool assembles a pool and starts its worker streams.
func NewPool(opts ...PoolOption) *Pool {
	cfg := poolConfig{queueDepth: 64, streams: 2, maxBatch: 8,
		breakThresh: breakerThreshold, breakCool: breakerCooldown}
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(cfg.devices) == 0 {
		cfg.devices = []gpu.Spec{gpu.TeslaC870()}
	}
	if cfg.queueDepth < 1 {
		cfg.queueDepth = 1
	}
	if cfg.streams < 1 {
		cfg.streams = 1
	}
	if cfg.maxBatch < 1 {
		cfg.maxBatch = 1
	}
	cfg.health = cfg.health.withDefaults()
	p := &Pool{
		cfg:     cfg,
		obs:     cfg.obs,
		stop:    make(chan struct{}),
		pending: make(map[string]*batch),
		jobs:    make(map[string]*Job),
		dlKick:  make(chan struct{}, 1),
	}
	p.gangs.obs = cfg.obs
	if cfg.obs != nil {
		p.slo = newSLOBoard()
	}
	if cfg.obs != nil || cfg.flightDump != "" {
		p.flight = newFlightRec(cfg.flightDump)
	}
	p.breaker = newBreaker(cfg.breakThresh, cfg.breakCool, cfg.obs, p.flight)
	for _, spec := range cfg.devices {
		svcOpts := append([]core.Option{}, cfg.serviceOpts...)
		svcOpts = append(svcOpts, core.WithDevice(spec), core.WithObserver(cfg.obs))
		if inj := cfg.faults[spec.Name]; inj != nil {
			svcOpts = append(svcOpts, core.WithFaults(inj))
		}
		d := &device{
			spec:        spec,
			svc:         core.NewService(svcOpts...),
			queue:       newDevQueue(cfg.queueDepth),
			health:      newHealthTracker(spec.Name, cfg.health, cfg.obs, p.flight),
			ledger:      newLedger(spec.Name, spec.MemoryBytes, cfg.residency, cfg.obs),
			streamClock: make([]float64, cfg.streams),
		}
		if cfg.residency {
			d.streamTail = make([]float64, cfg.streams)
		}
		p.devices = append(p.devices, d)
		for s := 0; s < cfg.streams; s++ {
			p.wg.Add(1)
			go p.worker(d, s)
		}
	}
	p.wg.Add(1)
	go p.sweeper()
	return p
}

// Submit admits one request: coalesce into a waiting identical batch, or
// compile for the least-loaded in-rotation feasible device and enqueue.
// The returned Job is already registered for polling; Wait on it for the
// result. ctx bounds the admission compile only — execution is
// asynchronous and governed by Request.Ctx / Job.Cancel. When the
// circuit breaker is open or no device is in rotation, Submit sheds the
// request with an error matching errors.Is(err, ErrRetryAfter); extract
// the suggested backoff with RetryAfter.
func (p *Pool) Submit(ctx context.Context, req Request) (*Job, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if req.Graph == nil {
		return nil, fmt.Errorf("serve: nil graph")
	}
	if ok, wait := p.breaker.allow(); !ok {
		metricInc(p.obs, metricRejected, "reason", "breaker_open")
		p.flight.note(flightShed, "reason", "breaker_open", "retry_after", wait.String())
		return nil, shedError("circuit breaker open", wait)
	}
	metricInc(p.obs, metricSubmitted)

	reqCtx := req.Ctx
	if reqCtx == nil {
		reqCtx = context.Background()
	}
	j := &Job{
		ID:          fmt.Sprintf("job-%d", p.nextID.Add(1)),
		Fingerprint: req.Graph.Fingerprint(),
		inputs:      req.Inputs,
		reqCtx:      reqCtx,
		pool:        p,
		done:        make(chan struct{}),
		cancelCh:    make(chan struct{}),
		state:       StateQueued,
		submitted:   time.Now(),
	}
	if p.obs != nil {
		j.trace = newJobTrace(j.submitted)
	}
	switch {
	case req.Deadline > 0:
		j.deadline = j.submitted.Add(req.Deadline)
	case req.Deadline == 0 && p.cfg.deadline > 0:
		j.deadline = j.submitted.Add(p.cfg.deadline)
	}
	accounting := req.Inputs == nil

	// Coalesce: an un-started batch for the same fingerprint and mode
	// absorbs the job with no compile or admission work of its own.
	p.mu.Lock()
	if b := p.pending[j.Fingerprint]; b != nil && !b.started &&
		b.accounting == accounting && len(b.jobs) < p.cfg.maxBatch {
		b.jobs = append(b.jobs, j)
		j.placement = b.pl
		j.coalesced = true
		j.batch = b
		size := len(b.jobs)
		p.jobs[j.ID] = j
		p.mu.Unlock()
		dev := b.leader.spec.Name
		metricInc(p.obs, metricCoalesced)
		j.trace.mark("coalesce-join", map[string]string{
			"device": dev, "batch_size": fmt.Sprint(size)})
		j.trace.span(PhaseAdmission, j.submitted, time.Now(), map[string]string{
			"device": dev, "coalesced": "true"})
		p.trackDeadline(j)
		return j, nil
	}
	p.mu.Unlock()

	b, err := p.place(ctx, req.Graph, accounting, []*Job{j}, move{})
	if err != nil {
		return nil, err
	}
	j.trace.span(PhaseAdmission, j.submitted, time.Now(), map[string]string{
		"device": b.leader.spec.Name, "cache_hit": fmt.Sprint(j.cacheHit)})
	p.trackDeadline(j)
	return j, nil
}

// place finds the jobs' placement and enqueues them as one new batch.
// Candidate placements are tried in preference order: each in-rotation
// device alone (residency-affine, then least-loaded) — the first whose
// compiled plan fits and whose queue has room wins — and, only when no
// single device can host the template, the whole in-rotation fleet as a
// gang: admission reports core.ErrInfeasible only when a graph fits no
// feasible placement at all, single-device or partitioned. Under
// WithGangPlacement a template whose working set exceeds the largest
// in-rotation device's memory tries the gang first. Quarantined devices
// and the device a migration leaves (mv.from) are skipped. Fresh
// submissions register the batch for coalescing and the lead job for
// polling; migrated batches are not coalescable. Failures are typed:
// ErrQueueFull, core.ErrInfeasible, ErrRetryAfter (no device in
// rotation), ErrClosed.
func (p *Pool) place(ctx context.Context, g *graph.Graph, accounting bool, jobs []*Job, mv move) (*batch, error) {
	var fleet []*device // in pool order: a gang's partition-part order
	for _, d := range p.devices {
		if d != mv.from && d.health.inRotation() {
			fleet = append(fleet, d)
		}
	}
	if len(fleet) == 0 {
		metricInc(p.obs, metricRejected, "reason", "no_device")
		p.flight.note(flightShed, "reason", "no_device")
		return nil, shedError("no device in rotation", p.cfg.health.ProbeInterval)
	}
	// Residency-affine placement: devices already holding pinned buffers
	// for this fingerprint sort ahead of the least-loaded order so repeat
	// submissions land where their weights live. Ties (and the
	// no-affinity case, which is every case with residency off) fall back
	// to load.
	prefix := pinPrefix(jobs[0].Fingerprint)
	order := append([]*device(nil), fleet...)
	sort.SliceStable(order, func(a, b int) bool {
		da, db := order[a].ledger.affinity(prefix) > 0, order[b].ledger.affinity(prefix) > 0
		if da != db {
			return da
		}
		return order[a].load() < order[b].load()
	})
	try := func(members ...*device) (*batch, error) {
		return p.tryPlace(ctx, g, accounting, jobs, members, mv)
	}

	// Under WithGangPlacement, oversized templates prefer a gang up
	// front: when the template's whole working set exceeds the largest
	// in-rotation device's memory, a single device could only page it
	// through the bus, while a partition across the pool gets the
	// fleet's aggregate memory and concurrently running parts. A failed
	// gang attempt (partition infeasible, every member queue full) falls
	// through to the single-device paging path below.
	gangFirst := false
	var gangErr error
	if p.cfg.gangFirst && len(fleet) >= 2 {
		var maxMem int64
		for _, d := range fleet {
			maxMem = max(maxMem, d.spec.MemoryBytes)
		}
		if gangFirst = workingSetBytes(g) > maxMem; gangFirst {
			b, err := try(fleet...)
			if err == nil {
				return b, nil
			}
			gangErr = err
		}
	}

	sawFull := false
	lastInfeasible := core.ErrInfeasible
	for _, d := range order {
		b, err := try(d)
		switch {
		case err == nil:
			return b, nil
		case errors.Is(err, core.ErrInfeasible):
			lastInfeasible = err // try a larger device
		case errors.Is(err, ErrQueueFull):
			sawFull = true // try the next device
		default:
			return nil, err // infrastructure failure, ctx cancelled, pool closed
		}
	}
	if sawFull {
		metricInc(p.obs, metricRejected, "reason", "queue_full")
		return nil, fmt.Errorf("%w: all feasible devices at queue depth %d", ErrQueueFull, p.cfg.queueDepth)
	}
	if errors.Is(gangErr, ErrQueueFull) {
		// The preferred gang placement was feasible but backed up — that
		// is backpressure, not infeasibility.
		metricInc(p.obs, metricRejected, "reason", "queue_full")
		return nil, gangErr
	}

	// No single device can host the template. Before declaring it
	// infeasible, try the gang: the template partitioned across every
	// in-rotation device, admitted on all of them atomically.
	if !gangFirst && len(fleet) >= 2 {
		b, err := try(fleet...)
		switch {
		case errors.Is(err, ErrQueueFull):
			metricInc(p.obs, metricRejected, "reason", "queue_full")
		case errors.Is(err, core.ErrInfeasible):
			metricInc(p.obs, metricRejected, "reason", "infeasible")
			err = fmt.Errorf("serve: no single device can host template and partitioning across %d devices failed: %w",
				len(fleet), err)
		}
		return b, err
	}
	metricInc(p.obs, metricRejected, "reason", "infeasible")
	return nil, fmt.Errorf("serve: no device can host template: %w", lastInfeasible)
}

// tryPlace attempts one candidate placement: compile g for members,
// check every member's share against its memory, and enqueue the new
// batch on the first member with queue room (any member can hold the
// queue slot; the member order — and the compiled artifact — stays fixed
// regardless of which queue the batch waits in). The verdict is typed:
// core.ErrInfeasible and ErrQueueFull send place on to its next
// candidate, anything else is final.
func (p *Pool) tryPlace(ctx context.Context, g *graph.Graph, accounting bool, jobs []*Job,
	members []*device, mv move) (*batch, error) {

	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.spec.Name
	}
	pl := Placement{Devices: names}
	skip := func(device, reason string) {
		for _, j := range jobs {
			j.trace.mark("placement-skip", map[string]string{"device": device, "reason": reason})
		}
	}

	compileStart := time.Now()
	art, hit, err := p.compile(ctx, g, members)
	if err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			skip(pl.String(), "infeasible")
		}
		return nil, err
	}
	for i, m := range members {
		if art.shares[i] > m.spec.MemoryBytes {
			skip(m.spec.Name, "footprint")
			return nil, fmt.Errorf("%w: plan peak %d B exceeds %s memory %d B",
				core.ErrInfeasible, art.shares[i], m.spec.Name, m.spec.MemoryBytes)
		}
	}
	pl.Bytes = append([]int64(nil), art.shares...) // job status must not alias the ledger's shares
	b := &batch{
		fp: jobs[0].Fingerprint, graph: g, accounting: accounting, moved: mv,
		members: members, art: art, pl: pl, jobs: jobs,
	}

	for _, leader := range members {
		b.leader = leader
		b.enqueuedAt = time.Now()
		p.mu.Lock()
		if p.closed.Load() { // Close closes queues under this mutex
			p.mu.Unlock()
			return nil, ErrClosed
		}
		if !leader.queue.tryPush(b) {
			p.mu.Unlock()
			skip(leader.spec.Name, "queue_full")
			continue
		}
		// A worker takes the batch under this mutex, so everything that
		// records the placement lands before any of its jobs can settle.
		b.queued(+1)
		art.tally.notePlaced()
		for _, j := range jobs {
			j.batch = b
			j.setPlacement(pl, mv.from != nil)
			j.trace.span(PhaseCompile, compileStart, b.enqueuedAt, map[string]string{
				"device": pl.String(), "cache_hit": fmt.Sprint(hit)})
			j.trace.mark("enqueue", map[string]string{"device": leader.spec.Name})
		}
		if mv.from == nil {
			jobs[0].cacheHit = hit // polling finds the job under this mutex
			p.pending[b.fp] = b
			p.jobs[jobs[0].ID] = jobs[0]
		} else {
			p.noteMoved(b)
		}
		p.mu.Unlock()
		metricGauge(p.obs, metricQueueDepth, float64(leader.queue.len()), "device", leader.spec.Name)
		return b, nil
	}
	return nil, fmt.Errorf("%w: %s at queue depth %d", ErrQueueFull, pl, p.cfg.queueDepth)
}

// Job returns a submitted job by ID (nil when unknown).
func (p *Pool) Job(id string) *Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.jobs[id]
}

// abortQueued removes a still-queued job eagerly (deadline expiry or
// cancellation). When no live jobs remain, the batch is given up: closed
// to coalescing and to workers, its queue slot and queued bytes returned
// before the job is published. In-flight and finished jobs are left
// alone — the execution context owns cancellation there.
func (p *Pool) abortQueued(j *Job, sentinel error, reason string) {
	p.mu.Lock()
	b, i := j.batch, -1
	if b != nil && !b.started {
		i = slices.Index(b.jobs, j)
	}
	if i < 0 {
		p.mu.Unlock()
		return
	}
	b.jobs = slices.Delete(b.jobs, i, i+1)
	empty := len(b.jobs) == 0
	if empty {
		b.started = true // take skips it from now on
		if p.pending[b.fp] == b {
			delete(p.pending, b.fp)
		}
	}
	d := b.leader
	p.mu.Unlock()

	won := p.settleJob(nil, j, d, outcome{}, fmt.Errorf("%w: queued %.0f ms on %s",
		sentinel, time.Since(j.submitted).Seconds()*1e3, d.spec.Name), reason)
	if empty {
		d.queue.remove(b) // a worker that popped it first finds nothing to take
		b.queued(-1)
		metricGauge(p.obs, metricQueueDepth, float64(d.queue.len()), "device", d.spec.Name)
	}
	if won {
		j.publish()
	}
}

// settleJob is the one terminal transition, however a job ends: it
// concludes j — done with out when err is nil, else failed for reason
// (cancelled, deadline, exec, migration) and counted against d — and, if
// this call won, moves every counter, metric, SLO and flight event the job
// touches. It never wakes waiters: j joins b.concluded for release, or,
// with a nil b (aborted out of its queue), abortQueued publishes it.
func (p *Pool) settleJob(b *batch, j *Job, d *device, out outcome, err error, reason string) bool {
	if !j.conclude(out.rep, out.parts, err) {
		return false
	}
	if b == nil {
		metricInc(p.obs, metricAborted, "reason", reason)
		p.flight.note(flightAbort, "job", j.ID, "reason", reason, "device", d.spec.Name)
	} else {
		b.concluded = append(b.concluded, j)
	}
	if err != nil {
		metricInc(p.obs, metricFailed, "reason", reason)
		d.mu.Lock()
		d.failed++
		d.mu.Unlock()
		if reason == "exec" {
			b.art.tally.noteSettled(err)
		}
		if reason == "exec" || reason == "migration" { // the pool's fault, not the caller's
			p.breaker.recordFailure()
		}
		return true
	}

	// Success: the leader's stream clock advances by the outcome's span less
	// the rolling-admission overlap (lead prefetches hidden behind the stream
	// predecessor's compute tail); other members' device-seconds go to their
	// gang busy time. Charged stats — what the job is billed — never change.
	l, stream := b.leader, b.stream
	var ov float64
	l.mu.Lock()
	l.completed++
	if r := b.art.residency; r != nil && p.cfg.residency {
		ov = math.Min(r.LeadSec(b.resident), math.Min(l.streamTail[stream], out.span))
		l.streamTail[stream] = r.TailSec
	}
	l.streamClock[stream] += out.span - ov
	l.rollSec += ov
	l.h2dCharged += out.rep.Stats.H2DFloats
	l.h2dActual += out.rep.Actual.H2DFloats
	l.elidedFloats += out.rep.ElidedH2DFloats
	l.mu.Unlock()
	for i, m := range b.members {
		if m == l {
			continue // its stream carried the span
		}
		sec := out.parts.Parts[i].Stats.TotalTime()
		m.mu.Lock()
		m.gangSec += sec
		m.mu.Unlock()
	}
	if ov > 0 {
		metricObserve(p.obs, metricRollOverlap, ov)
	}
	if out.rep.ElidedH2DFloats > 0 {
		metricAdd(p.obs, metricElidedFloats, out.rep.ElidedH2DFloats)
	}
	b.art.tally.noteSettled(nil)
	metricInc(p.obs, metricCompleted, "device", l.spec.Name)
	metricObserve(p.obs, metricExecSeconds, out.wall.Seconds())
	p.breaker.recordSuccess()
	p.slo.observeDone(j.Fingerprint, out.wall.Seconds(), time.Since(j.submitted).Seconds(), j.ID)
	return true
}

// alive returns the jobs still worth executing on (or moving off) d, and
// is where a dequeued job dies: already-terminal ones (aborted out of the
// queue) are dropped, ones whose caller gave up fail with ErrCancelled,
// and ones whose queue-wait deadline passed before now fail with
// ErrDeadlineExceeded — settled on b. A zero now (the checks between
// execution groups and before migration) expires nothing.
func (p *Pool) alive(b *batch, d *device, jobs []*Job, now time.Time) []*Job {
	live := jobs[:0:0]
	for _, j := range jobs {
		switch {
		case j.terminal():
		case j.cancelled():
			p.settleJob(b, j, d, outcome{}, fmt.Errorf("%w before execution on %s", ErrCancelled, d.spec.Name), "cancelled")
		case !j.deadline.IsZero() && now.After(j.deadline):
			p.settleJob(b, j, d, outcome{}, fmt.Errorf("%w: queued %.0f ms on %s",
				ErrDeadlineExceeded, now.Sub(j.submitted).Seconds()*1e3, d.spec.Name), "deadline")
		default:
			live = append(live, j)
		}
	}
	return live
}

// pinPrefix namespaces a fingerprint's pin keys: enough of the hash to
// make template-family collisions negligible, short enough to keep keys
// readable in stats and dumps.
func pinPrefix(fp string) string {
	if len(fp) > 16 {
		return fp[:16]
	}
	return fp
}

// admit reserves the batch's device memory, blocking while concurrent
// streams hold too much: the pinned-set grant when it applies and fits
// (see ledger.grant), otherwise every member's share, atomically.
func (p *Pool) admit(b *batch) {
	if h, resident, ok := b.members[0].ledger.grant(b.art.residency, pinPrefix(b.fp)); ok {
		b.holds, b.resident = []hold{h}, resident
		return
	}
	ledgers := make([]*ledger, len(b.members))
	for i, m := range b.members {
		ledgers[i] = m.ledger
	}
	b.holds = reserve(ledgers, b.art.shares)
}

// release ends the batch's claim on the pool: its holds go back to its
// members' ledgers, then every job settled on its behalf is published —
// the last step. Calling it again publishes only what settled since.
func (p *Pool) release(b *batch) {
	for i, h := range b.holds {
		b.members[i].ledger.release(h)
	}
	for _, j := range b.concluded {
		j.publish()
	}
	b.holds, b.concluded = nil, nil
}

// take marks a dequeued (or drained) batch started — closing it to
// coalescing — returns its shares to the queued-bytes load signal, and
// snapshots its jobs. A batch abortQueued gave up yields none: its shares
// went back there.
func (p *Pool) take(b *batch) []*Job {
	p.mu.Lock()
	if b.started {
		p.mu.Unlock()
		return nil
	}
	b.started = true
	if p.pending[b.fp] == b {
		delete(p.pending, b.fp)
	}
	jobs := append([]*Job(nil), b.jobs...)
	p.mu.Unlock()
	b.queued(-1)
	return jobs
}

// worker is one executor stream of one device.
func (p *Pool) worker(d *device, stream int) {
	defer p.wg.Done()
	name := d.spec.Name
	for {
		if p.cfg.gate != nil {
			select { // Close opens the gate too
			case <-p.cfg.gate:
			case <-p.stop:
			}
		}
		b, ok := d.queue.pop()
		if !ok {
			return
		}
		jobs := p.take(b)
		if len(jobs) == 0 {
			continue // given up by abortQueued
		}
		metricGauge(p.obs, metricQueueDepth, float64(d.queue.len()), "device", name)
		if tr := p.obs.T(); tr != nil && !b.enqueuedAt.IsZero() {
			// Queue lane: one span per batch covering its time in this
			// device's queue, on its own row of the pool Chrome trace.
			end := tr.NowSeconds()
			tr.AddWall("queue:"+name, fmt.Sprintf("batch[%d] %s", len(jobs), shortFP(b.fp)),
				"serve.queue", end-time.Since(b.enqueuedAt).Seconds(), end)
		}
		for _, j := range jobs {
			j.trace.mark("dequeue", map[string]string{
				"device": name, "stream": fmt.Sprint(stream)})
		}

		// A batch popped with a quarantined member (raced with the drain,
		// or a gang whose other member fell sick while it queued) is
		// re-placed whole, never executed.
		if sick := b.sick(); sick != nil {
			b.art.tally.noteAborted()
			p.migrate(sick, b, jobs, fmt.Errorf("%s quarantined", sick.spec.Name))
			p.release(b)
			continue
		}

		b.stream = stream
		p.admit(b)

		now := time.Now()
		live := jobs[:0:0]
		for _, j := range p.alive(b, d, jobs, now) {
			if j.start(len(jobs), now) {
				wait := now.Sub(j.submitted).Seconds()
				metricObserve(p.obs, metricQueueWait, wait)
				p.slo.observeQueue(j.Fingerprint, wait, j.ID)
				live = append(live, j)
			}
		}
		if len(live) > 0 {
			metricObserve(p.obs, metricBatchSize, float64(len(live)))
			p.run(b, live)
		}
		p.release(b)
	}
}

// poolCtx adapts pool-side job cancellation to context.Context for the
// executors. Err consults the base context directly (so caller contexts
// that only override Err — deterministic test clocks — keep working) and
// the all-jobs-cancelled channel; Done exposes the latter.
type poolCtx struct {
	context.Context               // base: the job's Request.Ctx, or Background for shared batches
	all             chan struct{} // closed when every batch member is cancelled
}

func (c *poolCtx) Err() error {
	select {
	case <-c.all:
		return context.Canceled
	default:
	}
	return c.Context.Err()
}

func (c *poolCtx) Done() <-chan struct{} { return c.all }

// batchContext builds the execution context for a batch: cancelled only
// when every live job has been cancelled (one caller giving up must not
// kill a shared accounting run serving others). The returned stop frees
// the watcher; always call it.
func batchContext(live []*Job) (context.Context, func()) {
	all := make(chan struct{})
	stopped := make(chan struct{})
	sigs := make([]<-chan struct{}, len(live))
	stops := make([]func(), len(live))
	for i, j := range live {
		sigs[i], stops[i] = j.cancelSignal()
	}
	go func() {
		for _, ch := range sigs {
			select {
			case <-ch:
			case <-stopped:
				return
			}
		}
		close(all)
	}()
	base := context.Background()
	if len(live) == 1 {
		base = live[0].reqCtx
	}
	stop := func() {
		close(stopped)
		for _, s := range stops {
			s()
		}
	}
	return &poolCtx{Context: base, all: all}, stop
}

// run executes the batch's live jobs. The batch is cut into execution
// groups — an accounting batch simulates once and every live job shares
// the report; a materialized batch runs each job's own inputs against the
// shared compiled artifact — and every group goes through the same
// execute → trace → settle → note-health sequence. A terminal device fault
// quarantines the faulty member and re-places the unfinished jobs.
//
// With an observer attached, each execution gets a fresh sink tracer: its
// simulated-clock device timeline lands in every member job's lifecycle
// trace, and the execution interval is drawn on the leader's worker lane
// of the pool Chrome trace. Without one the sink is nil and costs nothing.
func (p *Pool) run(b *batch, live []*Job) {
	l := b.leader
	lane := fmt.Sprintf("worker:%s#%d", l.spec.Name, b.stream)
	tr := p.obs.T()
	size := 1
	if b.accounting {
		size = len(live)
	}
	for at := 0; at < len(live); at += size {
		group := p.alive(b, l, live[at:at+size], time.Time{}) // callers may give up while earlier groups run
		if len(group) == 0 {
			continue
		}
		ctx, stop := batchContext(group)
		var sink *obs.Tracer
		if p.obs != nil {
			sink = obs.NewTracer()
		}
		t0 := time.Now()
		laneStart := tr.NowSeconds()
		// Accounting jobs carry no inputs, so Inputs is nil exactly when
		// Simulate is set.
		out, err := b.art.run(ctx, core.RunOptions{
			Inputs: group[0].inputs, Simulate: b.accounting, Resident: b.resident, Sink: sink})
		stop()
		out.wall = time.Since(t0)
		label := shortFP(b.fp)
		if b.accounting {
			label = fmt.Sprintf("%s[%d] %s", b.art.kind, len(group), label)
		}
		tr.AddWall(lane, label, "serve.exec", laneStart, tr.NowSeconds())
		for _, j := range group {
			j.trace.span(PhaseAttempt, t0, t0.Add(out.wall), map[string]string{
				"device": b.pl.String(), "stream": fmt.Sprint(b.stream),
				"outcome": attemptOutcome(err)})
			j.trace.addExec(sink)
		}
		if err != nil && exec.IsDeviceFault(err) {
			p.escalate(b, live[at:], err)
			return
		}
		reason := "exec"
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The callers gave up; that says nothing about the devices.
			reason, out = "cancelled", outcome{}
			err = fmt.Errorf("%w mid-flight on %s: %v", ErrCancelled, b.pl, err)
		}
		for _, j := range group {
			p.settleJob(b, j, l, out, err, reason)
		}
		if reason != "cancelled" {
			p.noteHealth(b, out.rep, err)
		}
	}
}

// attemptOutcome labels an execution attempt for its trace span.
func attemptOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case exec.IsDeviceFault(err):
		return "device-fault"
	default:
		return "error"
	}
}

// noteHealth feeds one execution outcome that was not a cancellation to
// the members' health state machines.
func (p *Pool) noteHealth(b *batch, rep *exec.Report, err error) {
	switch {
	case err != nil:
		// Arity branch 3 of 3 — health evidence: a non-fault error from a
		// multi-member execution cannot be attributed to any one member,
		// so it is evidence against a device only when there is just one.
		if len(b.members) == 1 {
			b.leader.health.noteDirty()
		}
	case rep != nil && rep.Recovery != nil && !rep.Recovery.Clean():
		for _, m := range b.members {
			m.health.noteDirty()
		}
	default:
		for _, m := range b.members {
			m.health.noteClean()
		}
	}
}

// escalate handles a terminal device fault inside an execution: write the
// faulty member's pinned set off (on every escalation, so pins installed
// by a batch whose dequeue raced the quarantine go too), quarantine it
// (the first escalation drains its queue onto healthy devices and starts
// the prober) and re-place the failing batch's unfinished jobs from
// scratch — on a single device or a new gang, excluding that member.
func (p *Pool) escalate(b *batch, jobs []*Job, cause error) {
	// Arity branch 2 of 3 — fault attribution: a partitioned execution
	// wraps its failure in an exec.PartError naming the part, and parts
	// are parallel to members; a single-device fault carries none and is
	// the leader's.
	d := b.leader
	var pe *exec.PartError
	if errors.As(cause, &pe) {
		d = b.members[pe.Part]
	}
	b.art.tally.noteAborted()
	name := d.spec.Name
	metricInc(p.obs, metricDeviceFault, "device", name)
	p.flight.note(flightFault, "device", name, "cause", cause.Error())
	d.ledger.writeOff()
	if d.health.quarantine(cause.Error()) {
		for _, qb := range d.queue.drain() {
			p.migrate(d, qb, p.take(qb), cause)
			p.release(qb)
		}
		metricGauge(p.obs, metricQueueDepth, float64(d.queue.len()), "device", name)
		p.wg.Add(1)
		go p.probeLoop(d)
	}
	// The execution is over: its holds go back (and its settled jobs are
	// published) before the rest can land, and settle, anywhere else.
	p.release(b)
	p.migrate(d, b, jobs, cause)
}

// migrate re-places a batch's unfinished jobs on healthy devices:
// recompile for the new placement (through its plan cache), re-check
// admission, enqueue (tryPlace records the hop). Jobs that cannot be
// placed fail with the typed placement error; a batch that has already
// bounced maxMigrations times fails with the causing fault. Jobs that die
// here settle on b, for its taker to publish.
func (p *Pool) migrate(from *device, b *batch, jobs []*Job, cause error) {
	live := p.alive(b, from, jobs, time.Time{})
	if len(live) == 0 {
		return
	}
	var err error
	if b.moved.count >= maxMigrations {
		err = fmt.Errorf("serve: batch migrated %d times without completing: %w", b.moved.count, cause)
	} else if _, err = p.place(context.Background(), b.graph, b.accounting, live,
		move{from, cause, b.moved.count + 1}); err != nil {
		err = fmt.Errorf("serve: migration off %s failed (original fault: %v): %w", from.spec.Name, cause, err)
	}
	if err == nil {
		return
	}
	p.flight.note(flightMigrFail,
		"from", from.spec.Name, "jobs", fmt.Sprint(len(live)), "error", err.Error())
	for _, j := range live {
		p.settleJob(b, j, from, outcome{}, err, "migration")
	}
}

// noteMoved records a migrated batch's hop off b.moved.from onto its
// leader. tryPlace calls it with the pool mutex held, before a worker can
// take the batch.
func (p *Pool) noteMoved(b *batch) {
	from, to, n, cause := b.moved.from.spec.Name, b.leader.spec.Name, len(b.jobs), b.moved.cause.Error()
	b.moved.from.mu.Lock()
	b.moved.from.migratedOut += int64(n)
	b.moved.from.mu.Unlock()
	b.leader.mu.Lock()
	b.leader.migratedIn += int64(n)
	b.leader.mu.Unlock()
	metricInc(p.obs, metricMigrateBatches, "from", from, "to", to)
	metricAdd(p.obs, metricMigrateJobs, int64(n))
	p.obs.T().MarkWall("migrate", "serve", map[string]string{
		"from": from, "to": to, "jobs": fmt.Sprint(n), "cause": cause})
	p.flight.note(flightMigrate, "from", from, "to", to, "jobs", fmt.Sprint(n), "cause", cause)
	for _, j := range b.jobs {
		j.trace.mark("migrate", map[string]string{"from": from, "to": to, "cause": cause})
	}
}

// probeLoop re-probes a quarantined device on the policy interval until
// a probe runs clean (the health tracker flips to recovered) or the pool
// closes.
func (p *Pool) probeLoop(d *device) {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case <-time.After(p.cfg.health.ProbeInterval):
		}
		if p.closed.Load() {
			return
		}
		if d.health.probeResult(p.probe(d)) {
			return
		}
	}
}

// probe runs a tiny canonical template through the quarantined device's
// service under the resilient executor; a clean, recovery-free run is
// the readmission signal. Probe time is synthetic and never charged to
// the device's stream clocks.
func (p *Pool) probe(d *device) bool {
	name := d.spec.Name
	d.mu.Lock()
	d.probes++
	d.mu.Unlock()
	tr := p.obs.T()
	probeStart := tr.NowSeconds()
	g, _, err := workload.Spec{Template: "edge", H: 32, W: 24, Kernel: 3, Orientations: 2}.Build()
	if err != nil {
		return false
	}
	clean := false
	if c, _, cerr := d.svc.Compile(context.Background(), g); cerr == nil {
		rep, rerr := d.svc.Run(context.Background(), c, core.RunOptions{Simulate: true, Resilient: true})
		clean = rerr == nil && rep != nil && rep.Recovery != nil && rep.Recovery.Clean()
	}
	result := "failed"
	if clean {
		result = "clean"
	}
	metricInc(p.obs, metricProbe, "device", name, "result", result)
	tr.AddWall("probe:"+name, "probe:"+result, "serve.probe", probeStart, tr.NowSeconds())
	p.obs.T().MarkWall("probe", "serve", map[string]string{"device": name, "result": result})
	p.flight.note(flightProbe, "device", name, "result", result)
	return clean
}

// DeviceStats is one device's slice of Pool.Stats.
type DeviceStats struct {
	Name           string `json:"name"`
	MemoryBytes    int64  `json:"memory_bytes"`
	QueueDepth     int    `json:"queue_depth"`
	CommittedBytes int64  `json:"committed_bytes"`
	Completed      int64  `json:"completed"`
	Failed         int64  `json:"failed"`
	// Health is the device's fault-tolerance state (healthy, degraded,
	// quarantined, recovered); Quarantines counts how many times it left
	// rotation, Probes how many probe jobs it has been sent.
	Health      string `json:"health"`
	Quarantines int64  `json:"quarantines,omitempty"`
	Probes      int64  `json:"probes,omitempty"`
	// MigratedOut/MigratedIn count jobs moved off this device after a
	// quarantine (queue drain or in-flight escalation) and re-placed
	// jobs it accepted from sick peers.
	MigratedOut int64 `json:"migrated_out,omitempty"`
	MigratedIn  int64 `json:"migrated_in,omitempty"`
	// GangBusySec is modeled time spent executing partition parts as a
	// non-leading gang member (included in ModeledBusySec).
	GangBusySec    float64 `json:"gang_busy_seconds,omitempty"`
	ModeledBusySec float64 `json:"modeled_busy_seconds"`
	// Utilization is modeled busy time over streams × modeled makespan —
	// how evenly the admission policy spread simulated work.
	Utilization float64 `json:"utilization"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	// Cross-job residency state (zero with residency off): bytes and
	// buffer count currently pinned on the device, plus the cumulative
	// pin grant/eviction counters.
	PinnedBytes   int64 `json:"pinned_bytes,omitempty"`
	PinnedBuffers int   `json:"pinned_buffers,omitempty"`
	PinHits       int64 `json:"pin_hits,omitempty"`
	PinMisses     int64 `json:"pin_misses,omitempty"`
	PinEvictions  int64 `json:"pin_evictions,omitempty"`
}

// ResidencyStats is the pool-wide cross-job residency summary. It is
// always present in Stats (Enabled false when the pool runs without
// WithResidency) so scrapers can key on the "residency" section
// unconditionally.
type ResidencyStats struct {
	Enabled       bool  `json:"enabled"`
	PinnedBytes   int64 `json:"pinned_bytes"`
	PinnedBuffers int   `json:"pinned_buffers"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	// ChargedH2DFloats/ActualH2DFloats compare the billed transfer
	// volume against what the elision-aware clock actually moved;
	// ElidedH2DFloats is their difference as reported per job.
	ChargedH2DFloats int64 `json:"charged_h2d_floats"`
	ActualH2DFloats  int64 `json:"actual_h2d_floats"`
	ElidedH2DFloats  int64 `json:"elided_h2d_floats"`
	// RollingOverlapSec is the modeled time hidden by rolling admission:
	// lead prefetches of one batch overlapped into the compute tail of
	// its stream predecessor.
	RollingOverlapSec float64 `json:"rolling_overlap_seconds"`
}

// Stats is a pool-wide snapshot.
type Stats struct {
	Devices []DeviceStats `json:"devices"`
	// HealthyDevices counts devices in rotation (not quarantined).
	HealthyDevices int `json:"healthy_devices"`
	// BreakerOpen reports the circuit breaker shedding load right now;
	// BreakerOpens counts how many times it has tripped.
	BreakerOpen  bool  `json:"breaker_open"`
	BreakerOpens int64 `json:"breaker_opens,omitempty"`
	// MigratedJobs is the pool-wide count of jobs re-placed off
	// quarantined devices.
	MigratedJobs int64 `json:"migrated_jobs,omitempty"`
	// ModeledMakespanSec is the largest per-stream simulated clock — the
	// machine-independent "how long would this batch of work have taken"
	// number the serving benchmark compares against a serial baseline.
	ModeledMakespanSec float64 `json:"modeled_makespan_seconds"`
	ModeledBusySec     float64 `json:"modeled_busy_seconds"`
	// SLOs holds per-workload-fingerprint latency quantiles (queue wait,
	// exec, end-to-end) with exemplar job IDs. Only populated when the
	// pool runs with an observer, so disabled-pool stats are unchanged.
	SLOs []SLOStats `json:"slos,omitempty"`
	// Residency summarizes the cross-job pinned-buffer state pool-wide;
	// always present (Enabled false when the feature is off).
	Residency ResidencyStats `json:"residency"`
	// Gangs summarizes cross-device gang scheduling; always present
	// (all-zero while every job fit a single device).
	Gangs GangStats `json:"gangs"`
}

// Stats snapshots the pool.
func (p *Pool) Stats() Stats {
	var st Stats
	for _, d := range p.devices {
		health := d.health.current()
		d.mu.Lock()
		ds := DeviceStats{
			Name:        d.spec.Name,
			MemoryBytes: d.spec.MemoryBytes,
			QueueDepth:  d.queue.len(),
			Completed:   d.completed,
			Failed:      d.failed,
			Health:      health.String(),
			Quarantines: d.health.quarantineCount(),
			Probes:      d.probes,
			MigratedOut: d.migratedOut,
			MigratedIn:  d.migratedIn,
		}
		d.ledger.fill(&ds)
		if p.cfg.residency {
			st.Residency.Enabled = true
			st.Residency.PinnedBytes += ds.PinnedBytes
			st.Residency.PinnedBuffers += ds.PinnedBuffers
			st.Residency.Hits += ds.PinHits
			st.Residency.Misses += ds.PinMisses
			st.Residency.Evictions += ds.PinEvictions
			st.Residency.ChargedH2DFloats += d.h2dCharged
			st.Residency.ActualH2DFloats += d.h2dActual
			st.Residency.ElidedH2DFloats += d.elidedFloats
			st.Residency.RollingOverlapSec += d.rollSec
		}
		ds.GangBusySec = d.gangSec
		ds.ModeledBusySec = d.gangSec
		for _, c := range d.streamClock {
			ds.ModeledBusySec += c
			if c > st.ModeledMakespanSec {
				st.ModeledMakespanSec = c
			}
		}
		d.mu.Unlock()
		cs := d.svc.CacheStats()
		ds.CacheHits, ds.CacheMisses = cs.Hits, cs.Misses
		st.ModeledBusySec += ds.ModeledBusySec
		st.MigratedJobs += ds.MigratedOut
		if health != Quarantined {
			st.HealthyDevices++
		}
		st.Devices = append(st.Devices, ds)
	}
	st.BreakerOpen, st.BreakerOpens = p.breaker.snapshot()
	st.SLOs = p.slo.stats()
	st.Gangs = p.gangs.stats()
	if st.ModeledMakespanSec > 0 {
		for i := range st.Devices {
			streams := float64(p.cfg.streams)
			st.Devices[i].Utilization = st.Devices[i].ModeledBusySec / (streams * st.ModeledMakespanSec)
		}
	}
	return st
}

// Observer returns the pool's observer (nil when observability is off).
func (p *Pool) Observer() *obs.Observer { return p.obs }

// FlightSnapshot returns the pool flight recorder's current ring
// contents (zero value when the recorder is disabled).
func (p *Pool) FlightSnapshot() obs.FlightSnapshot { return p.flight.snapshot() }

// WriteTrace writes the pool-wide Chrome trace: the shared observer's
// compile pipeline plus the per-device worker, queue, and probe lanes
// the pool draws, one row each.
func (p *Pool) WriteTrace(w io.Writer) error {
	tr := p.obs.T()
	if tr == nil {
		return fmt.Errorf("serve: pool has no observer")
	}
	return tr.WriteChrome(w)
}

// Close stops accepting work, drains already-queued batches, and waits
// for every worker stream (and the sweeper and probers) to finish.
// Idempotent.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.stop)
	p.mu.Lock()
	for _, d := range p.devices {
		d.queue.close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
