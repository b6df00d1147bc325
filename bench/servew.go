package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/templates"
	"repro/internal/workload"
)

const serveClients = 2

// sessionOrder is one serve_mixed op: five synchronous jobs in this
// order. A session, not a request, is the op, so the median is not the
// boundary between a 1 ms class and a 200 ms class.
var sessionOrder = []string{"cnn_small_acct", "edge_acct", "edge_mat", "edge_fresh", "cnn_small_acct2"}

// freshClass draws new dimensions every session: the steady trickle of
// plan-cache misses. Every other class is a fixed request.
const freshClass = "edge_fresh"

// largeClass runs in the traced run only, to keep the super-linear cost of
// a resilient accounting job on a large plan in view.
const largeClass = "cnn_large_acct"

func fixedRequest(class string, seed int64) serve.JobRequest {
	switch class {
	case "cnn_small_acct":
		return serve.JobRequest{Template: "cnn-small", H: 6400, W: 480}
	case "edge_acct":
		return serve.JobRequest{Template: "edge", H: 10000, W: 10000}
	case "edge_mat":
		return serve.JobRequest{Template: "edge", H: 256, W: 256, Mode: "materialized", Seed: seed}
	case "cnn_small_acct2":
		return serve.JobRequest{Template: "cnn-small", H: 640, W: 480}
	case largeClass:
		return serve.JobRequest{Template: "cnn-large", H: 640, W: 480}
	}
	panic("bench: no fixed request for class " + class)
}

// freshRequest returns the k-th fresh request. Heights are distinct for
// k < 10000 (7919 is coprime to 10000), so no two share a fingerprint.
func freshRequest(k int) serve.JobRequest {
	return serve.JobRequest{Template: "edge",
		H: 2000 + (k*7919)%10000, W: 2000 + (k*4801+1234)%10000}
}

// buildRequest instantiates a job the way serve's HTTP handler does, for
// the jobs the harness submits to the pool directly.
func buildRequest(jr serve.JobRequest) (serve.Request, error) {
	switch jr.Template {
	case "edge":
		g, bufs, err := templates.EdgeDetect(templates.EdgeConfig{
			ImageH: jr.H, ImageW: jr.W, KernelSize: 5, Orientations: 4})
		if err != nil {
			return serve.Request{}, err
		}
		req := serve.Request{Graph: g}
		if jr.Mode == "materialized" {
			req.Inputs = workload.EdgeInputs(bufs, jr.Seed)
		}
		return req, nil
	case "cnn-small", "cnn-large":
		cfg := templates.SmallCNN(jr.H, jr.W)
		if jr.Template == "cnn-large" {
			cfg = templates.LargeCNN(jr.H, jr.W)
		}
		g, _, err := templates.CNN(cfg)
		return serve.Request{Graph: g}, err
	}
	return serve.Request{}, fmt.Errorf("bench: template %q", jr.Template)
}

// fleet is one pool behind one HTTP server.
type fleet struct {
	pool *serve.Pool
	srv  *httptest.Server
}

func (f *fleet) close() {
	f.srv.Close()
	f.pool.Close()
}

// serveInst is the serve_mixed workload.
type serveInst struct {
	seed         int64
	opsPerClient int
	want         map[string]planFacts
	main         *fleet
	withObs      *fleet // traced run only
	clients      []*http.Client
	// fresh[client*opsPerClient+i] is the fresh request of that timed
	// session: a seeded permutation of a fixed set, so every seed does the
	// same work in another order. nextFresh numbers all other sessions.
	fresh     []int
	nextFresh atomic.Int64

	mu                    sync.Mutex
	jobs, hits, coalesced int
	largeExecMS           []float64
	statsMS               float64
	statsJobs, statsFail  int64
}

func newFleet(o *obs.Observer) *fleet {
	small := gpu.GeForce8800GTX()
	opts := []serve.PoolOption{
		serve.WithDevices(gpu.TeslaC870(), small),
		serve.WithStreams(1),
		// No coalescing. Two closed-loop clients share a fingerprint in
		// flight only by accident, about one job in a hundred, mostly when
		// a block starts them in step; each accident saves a whole
		// execution, which moved allocs_per_op and live_heap_mb in steps of
		// 0.3 % from run to run.
		serve.WithMaxBatch(1),
		// Both cards plan against one capacity, so a plan, and with it every
		// modeled number, is the same whichever device the placement race
		// picks. Half the smaller card, because a plan that fills an arena
		// fragments it: at the full capacity the 8800 GTX compacts (and
		// charges modeled time for it) where the roomier C870 does not.
		serve.WithServiceOptions(core.WithCapacity(small.PlannerCapacity() / 2)),
	}
	if o != nil {
		opts = append(opts, serve.WithObserver(o))
	}
	pool := serve.NewPool(opts...)
	return &fleet{pool: pool, srv: httptest.NewServer(serve.NewHandler(pool))}
}

func setupServe(seed int64, opsPerClient int, traced bool, want *expectedFile) (*serveInst, error) {
	s := &serveInst{seed: seed, opsPerClient: opsPerClient, want: want.Serve, main: newFleet(nil)}
	s.fresh = rand.New(rand.NewSource(seed)).Perm(serveClients * opsPerClient)
	s.nextFresh.Store(int64(len(s.fresh)))
	for c := 0; c < serveClients; c++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	fleets := []*fleet{s.main}
	if traced {
		s.withObs = newFleet(obs.New())
		fleets = append(fleets, s.withObs)
	}
	for _, f := range fleets {
		if err := s.warm(f); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := s.finish(); err != nil {
		s.close()
		return nil, err
	}
	runtime.GC()
	return s, nil
}

// submit places one job on the pool directly and waits for it.
func submit(p *serve.Pool, jr serve.JobRequest) (*serve.Job, *exec.Report, error) {
	req, err := buildRequest(jr)
	if err != nil {
		return nil, nil, err
	}
	j, err := p.Submit(context.Background(), req)
	if err != nil {
		return nil, nil, err
	}
	rep, err := j.Wait(context.Background())
	return j, rep, err
}

// warm compiles every fixed class on both devices, then runs one HTTP
// session per client. Placement goes to the least-loaded device and to
// the first one on a tie, so a probe submitted while a blocker runs lands
// on the second device, and a job submitted to an idle pool on the first.
func (s *serveInst) warm(f *fleet) error {
	first, second := gpu.TeslaC870().Name, gpu.GeForce8800GTX().Name
	fixed := []string{"cnn_small_acct", "edge_acct", "edge_mat", "cnn_small_acct2"}
	for _, class := range fixed {
		blocker := "cnn_small_acct"
		if class == blocker {
			blocker = "cnn_small_acct2"
		}
		breq, err := buildRequest(fixedRequest(blocker, s.seed))
		if err != nil {
			return err
		}
		preq, err := buildRequest(fixedRequest(class, s.seed))
		if err != nil {
			return err
		}
		bj, err := f.pool.Submit(context.Background(), breq)
		if err != nil {
			return err
		}
		pj, err := f.pool.Submit(context.Background(), preq)
		if err != nil {
			return err
		}
		for _, j := range []*serve.Job{pj, bj} {
			if _, err := j.Wait(context.Background()); err != nil {
				return err
			}
		}
		if got := pj.Status().Device; got != second {
			return fmt.Errorf("warm-up: %s landed on %s, wanted %s behind a running %s", class, got, second, blocker)
		}
		j, _, err := submit(f.pool, fixedRequest(class, s.seed))
		if err != nil {
			return err
		}
		if got := j.Status().Device; got != first {
			return fmt.Errorf("warm-up: %s landed on %s in an idle pool, wanted %s", class, got, first)
		}
	}
	return s.parallel(1, func(client, _ int) error {
		_, _, err := s.httpSession(f, client, -1, int(s.nextFresh.Add(1)), nil, "")
		return err
	})
}

// parallel runs f(client, i) for i in [0, n) on one goroutine per client
// and returns the first error.
func (s *serveInst) parallel(n int, f func(client, i int) error) error {
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n && errs[c] == nil; i++ {
				errs[c] = f(c, i)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// post sends one synchronous job and returns the decoded reply of a job
// that finished.
func post(hc *http.Client, url string, jr serve.JobRequest) (serve.JobResponse, error) {
	var out serve.JobResponse
	jr.Wait = true
	body, err := json.Marshal(jr)
	if err != nil {
		return out, err
	}
	resp, err := hc.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("POST /v1/jobs %+v: status %d: %s", jr, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, err
	}
	if out.State != serve.StateDone || out.Report == nil {
		return out, fmt.Errorf("POST /v1/jobs %+v: state %q, error %q", jr, out.State, out.Error)
	}
	return out, nil
}

// factsOfJSON reads what a job's HTTP reply says it charged.
func factsOfJSON(r *serve.ReportJSON) planFacts {
	return planFacts{
		Launches: r.KernelLaunches, H2DCalls: r.H2DCalls, D2HCalls: r.D2HCalls,
		TransferFloats: r.TotalFloats, PeakBytes: r.PeakResidentBytes, ModeledSeconds: r.SimSeconds,
	}
}

// checkJob compares one finished job with the committed facts of its
// class and returns what it executed.
func (s *serveInst) checkJob(class string, got planFacts, cacheHit bool) (opStats, error) {
	if class == freshClass {
		if cacheHit {
			return opStats{}, fmt.Errorf("%s: plan cache hit on dimensions never sent before", class)
		}
		if got.ModeledSeconds <= 0 || got.TransferFloats <= 0 {
			return opStats{}, fmt.Errorf("%s: empty report %+v", class, got)
		}
		return got.stats(), nil
	}
	return got.stats(), s.want[class].check(class, got)
}

func (s *serveInst) request(class string, fresh int) serve.JobRequest {
	if class == freshClass {
		return freshRequest(fresh)
	}
	return fixedRequest(class, s.seed)
}

// httpSession runs one session over HTTP. With a tracer it records a root
// span named root, a child span per request, and under each request the
// queue wait and execution time the job's own Status reports; what is
// left of the request is admission: JSON, template build, fingerprint,
// plan cache, placement, and HTTP itself.
func (s *serveInst) httpSession(f *fleet, client, op, fresh int, tr *tracer, root string) (float64, opStats, error) {
	var total opStats
	rootID := -1
	if tr != nil {
		rootID = tr.begin(root, op, -1)
		defer tr.end(rootID)
	}
	hits, coalesced := 0, 0
	t0 := time.Now()
	for _, class := range sessionOrder {
		id := -1
		if tr != nil {
			id = tr.begin("serve.request."+class, op, rootID)
		}
		resp, err := post(s.clients[client], f.srv.URL, s.request(class, fresh))
		if tr != nil {
			tr.end(id)
		}
		if err != nil {
			return 0, total, err
		}
		if tr != nil {
			end := tr.endTime(id)
			tr.add("serve.exec."+class, op, id, resp.ExecMS/1e3, end)
			tr.add("serve.queue_wait."+class, op, id, resp.QueueWaitMS/1e3, end-resp.ExecMS/1e3)
		}
		st, err := s.checkJob(class, factsOfJSON(resp.Report), resp.CacheHit)
		if err != nil {
			return 0, total, err
		}
		if resp.CacheHit {
			hits++
		}
		if resp.Coalesced {
			coalesced++
		}
		total.ModeledSeconds += st.ModeledSeconds
		total.TransferFloats += st.TransferFloats
		if st.PeakBytes > total.PeakBytes {
			total.PeakBytes = st.PeakBytes
		}
	}
	ms := msSince(t0)
	if f == s.main {
		s.mu.Lock()
		s.jobs += len(sessionOrder)
		s.hits += hits
		s.coalesced += coalesced
		s.mu.Unlock()
	}
	return ms, total, nil
}

// directSession is the same session through Pool.Submit and Job.Wait:
// what the HTTP session costs without HTTP and JSON.
func (s *serveInst) directSession(op, fresh int, tr *tracer) error {
	id := tr.begin("serve.session_direct", op, -1)
	defer tr.end(id)
	for _, class := range sessionOrder {
		j, rep, err := submit(s.main.pool, s.request(class, fresh))
		if err != nil {
			return err
		}
		if _, err := s.checkJob(class, factsOfReport(rep), j.Status().CacheHit); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveInst) op(client, i int, tr *tracer) (float64, opStats, error) {
	return s.httpSession(s.main, client, i*serveClients+client, s.fresh[client*s.opsPerClient+i], tr, "serve.session")
}

// after runs, once per traced block and as often as the block ran
// sessions, the session without HTTP and the session against a pool with
// an observer; and after the first and third traced block one Large CNN
// accounting job.
func (s *serveInst) after(block int, tr *tracer) error {
	bounds := blockBounds(s.opsPerClient, numBlocks)[block]
	n := bounds[1] - bounds[0]
	op := func(client, i int) int { return -1 - ((block*n+i)*serveClients + client) }
	if err := s.parallel(n, func(client, i int) error {
		return s.directSession(op(client, i), int(s.nextFresh.Add(1)), tr)
	}); err != nil {
		return err
	}
	if err := s.parallel(n, func(client, i int) error {
		_, _, err := s.httpSession(s.withObs, client, op(client, i), int(s.nextFresh.Add(1)), tr, "serve.session_obs")
		return err
	}); err != nil {
		return err
	}
	if block == 1 || block == 5 {
		resp, err := post(s.clients[0], s.main.srv.URL, fixedRequest(largeClass, s.seed))
		if err != nil {
			return err
		}
		if err := s.want[largeClass].check(largeClass, factsOfJSON(resp.Report)); err != nil {
			return err
		}
		s.largeExecMS = append(s.largeExecMS, resp.ExecMS)
	}
	return nil
}

// finish checks what no HTTP reply can show: that the materialized job's
// output equals the independent CPU interpreter's, bit for bit. It then
// reads the pool's own totals.
func (s *serveInst) finish() error {
	jr := fixedRequest("edge_mat", s.seed)
	req, err := buildRequest(jr)
	if err != nil {
		return err
	}
	ref, err := exec.RunReference(req.Graph, req.Inputs)
	if err != nil {
		return err
	}
	_, rep, err := submit(s.main.pool, jr)
	if err != nil {
		return err
	}
	if len(rep.Outputs) != len(ref) {
		return fmt.Errorf("edge_mat: %d outputs, reference has %d", len(rep.Outputs), len(ref))
	}
	for id, want := range ref {
		if got := rep.Outputs[id]; got == nil || !got.Equal(want) {
			return fmt.Errorf("edge_mat: output %d differs from exec.RunReference", id)
		}
	}

	t0 := time.Now()
	resp, err := s.clients[0].Get(s.main.srv.URL + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("GET /v1/stats: %w", err)
	}
	s.statsMS = msSince(t0)
	s.statsJobs, s.statsFail = 0, 0
	for _, d := range st.Devices {
		s.statsJobs += d.Completed + d.Failed
		s.statsFail += d.Failed
	}
	if s.statsFail != 0 {
		return fmt.Errorf("serve: the pool counts %d failed jobs", s.statsFail)
	}
	return nil
}

func (s *serveInst) layers(tr *tracer, m map[string]float64) {
	l := byLayer(tr.spans)
	ms := func(name string) []float64 {
		if l[name] == nil {
			return nil
		}
		return l[name].totalMS
	}
	for _, class := range sessionOrder {
		m["serve.request_p50_ms."+class] = median(ms("serve.request." + class))
		m["serve.request_p90_ms."+class] = percentile(ms("serve.request."+class), 0.9)
		m["serve.queue_wait_ms."+class] = median(ms("serve.queue_wait." + class))
		m["serve.exec_ms."+class] = median(ms("serve.exec." + class))
		m["serve.admit_ms."+class] = median(l["serve.request."+class].selfMS)
	}
	m["serve.exec_ms."+largeClass] = median(s.largeExecMS)
	session := median(ms("serve.session"))
	m["serve.http_overhead_ms"] = session - median(ms("serve.session_direct"))
	m["obs.trace_overhead_pct"] = (median(ms("serve.session_obs")) - session) / session * 100
	m["serve.cache_hit_share"] = perOp(float64(s.hits), s.jobs)
	m["serve.coalesced_share"] = perOp(float64(s.coalesced), s.jobs)
	m["serve.jobs_total"] = float64(s.statsJobs)
	m["serve.failed"] = float64(s.statsFail)
	m["serve.stats_ms"] = s.statsMS
}

func (s *serveInst) close() {
	for _, hc := range s.clients {
		hc.CloseIdleConnections()
	}
	s.main.close()
	if s.withObs != nil {
		s.withObs.close()
	}
}

func (s *serveInst) opSpan() string { return "serve.session" }
