package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/templates"
	"repro/internal/workload"
)

// JobRequest is the POST /v1/jobs body: a named template family plus its
// dimensions, instantiated server-side (graphs don't travel over the
// wire). Mode "accounting" (the default) replays the plan without data;
// "materialized" builds seeded inputs and executes for real.
type JobRequest struct {
	// Template is "edge", "cnn-small", or "cnn-large".
	Template string `json:"template"`
	H        int    `json:"h"`
	W        int    `json:"w"`
	// Kernel and Orientations shape the edge template (defaults 5 and 4).
	Kernel       int    `json:"kernel,omitempty"`
	Orientations int    `json:"orientations,omitempty"`
	Mode         string `json:"mode,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	// DeadlineMS bounds queue wait (0 = pool default, <0 = none).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Wait makes the POST synchronous: the response carries the finished
	// job instead of 202 + poll URL.
	Wait bool `json:"wait,omitempty"`
}

// JobResponse is the job representation both POST and GET return.
type JobResponse struct {
	Status
	// Report summarizes the execution once the job is done.
	Report *ReportJSON `json:"report,omitempty"`
}

// ReportJSON is the wire form of an execution report.
type ReportJSON struct {
	KernelLaunches    int     `json:"kernel_launches"`
	H2DCalls          int     `json:"h2d_calls"`
	D2HCalls          int     `json:"d2h_calls"`
	TotalFloats       int64   `json:"total_floats"`
	SimSeconds        float64 `json:"sim_seconds"`
	PeakResidentBytes int64   `json:"peak_resident_bytes"`
	Thrashing         bool    `json:"thrashing,omitempty"`
}

func reportJSON(rep *exec.Report) *ReportJSON {
	if rep == nil {
		return nil
	}
	return &ReportJSON{
		KernelLaunches:    rep.Stats.KernelLaunches,
		H2DCalls:          rep.Stats.H2DCalls,
		D2HCalls:          rep.Stats.D2HCalls,
		TotalFloats:       rep.Stats.TotalFloats(),
		SimSeconds:        rep.Stats.TotalTime(),
		PeakResidentBytes: rep.PeakResidentBytes,
		Thrashing:         rep.Thrashing,
	}
}

// buildRequest instantiates the named template into a pool Request.
func buildRequest(jr JobRequest) (Request, error) {
	if jr.H <= 0 || jr.W <= 0 {
		return Request{}, fmt.Errorf("h and w must be positive, got %dx%d", jr.H, jr.W)
	}
	materialized := false
	switch jr.Mode {
	case "", "accounting":
	case "materialized":
		materialized = true
	default:
		return Request{}, fmt.Errorf("mode %q not in {accounting, materialized}", jr.Mode)
	}

	var (
		g   *graph.Graph
		in  exec.Inputs
		err error
	)
	switch jr.Template {
	case "edge":
		kernel, orient := jr.Kernel, jr.Orientations
		if kernel == 0 {
			kernel = 5
		}
		if orient == 0 {
			orient = 4
		}
		var bufs *templates.EdgeBuffers
		g, bufs, err = templates.EdgeDetect(templates.EdgeConfig{
			ImageH: jr.H, ImageW: jr.W, KernelSize: kernel, Orientations: orient})
		if err == nil && materialized {
			in = workload.EdgeInputs(bufs, jr.Seed)
		}
	case "cnn-small", "cnn-large":
		cfg := templates.SmallCNN(jr.H, jr.W)
		if jr.Template == "cnn-large" {
			cfg = templates.LargeCNN(jr.H, jr.W)
		}
		var bufs *templates.CNNBuffers
		g, bufs, err = templates.CNN(cfg)
		if err == nil && materialized {
			in = workload.CNNInputs(bufs, jr.Seed)
		}
	default:
		return Request{}, fmt.Errorf("template %q not in {edge, cnn-small, cnn-large}", jr.Template)
	}
	if err != nil {
		return Request{}, err
	}
	return Request{
		Graph:    g,
		Inputs:   in,
		Deadline: time.Duration(jr.DeadlineMS) * time.Millisecond,
	}, nil
}

// StatusClientClosedRequest is the nginx-convention 499 code the API
// uses for jobs cancelled by their caller (Job.Cancel, a dropped
// Request.Ctx, or DELETE /v1/jobs/{id}).
const StatusClientClosedRequest = 499

// errCode maps a submission's or a job's error to its HTTP status: nil
// (or still in flight) 200, cancelled 499, queue-deadline expiry 504,
// shed or closed pool 503, no queue room 429, no feasible placement 422,
// anything else 500.
func errCode(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrCancelled):
		return StatusClientClosedRequest
	case errors.Is(err, ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrRetryAfter) || errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrInfeasible):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// The front door's fixed limits. A JobRequest is under 200 bytes, so
// 1 MiB is generous for any honest client and still keeps a hostile one
// from streaming an unbounded body into the decoder; ten seconds to send
// the request headers is the same kind of bound for a connection that
// opens and then says nothing.
const (
	maxJobBodyBytes   = 1 << 20
	readHeaderTimeout = 10 * time.Second
)

// NewServer returns an http.Server for NewHandler(p) on addr with the
// front door's connection limits set.
func NewServer(addr string, p *Pool) *http.Server {
	return &http.Server{Addr: addr, Handler: NewHandler(p), ReadHeaderTimeout: readHeaderTimeout}
}

// NewHandler exposes the pool over HTTP JSON:
//
//	POST   /v1/jobs                  submit (Wait=true blocks for the report)
//	GET    /v1/jobs/{id}             poll one job
//	GET    /v1/jobs/{id}/trace       the job's lifecycle trace (404 when
//	                                 the pool has no observer)
//	DELETE /v1/jobs/{id}             cancel one job
//	GET    /v1/stats                 pool snapshot (incl. health and SLOs)
//	GET    /v1/trace                 pool-wide Chrome trace (one lane per
//	                                 device worker, queue, and prober)
//	GET    /v1/debug/flightrecorder  flight-recorder ring snapshot
//	GET    /healthz                  liveness + pool health summary
//	GET    /metrics                  Prometheus text exposition
//	                                 (?format=json for a JSON snapshot)
//
// Submit errors map to status codes: full queue 429, infeasible template
// 422, bad request 400, body over 1 MiB 413, closed pool 503, load shed
// 503 with a Retry-After header (breaker open or no device in rotation).
// A job that expired in the queue reads back (or returns on Wait) as 504;
// a cancelled one as 499. Wait=true submissions adopt the HTTP request
// context as the job context, so a dropped connection cancels the job.
func NewHandler(p *Pool) http.Handler {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(v)
	}
	writeErr := func(w http.ResponseWriter, code int, err error) {
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}
	jobResponse := func(j *Job) JobResponse {
		return JobResponse{Status: j.Status(), Report: reportJSON(j.Report())}
	}

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var jr JobRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBodyBytes)).Decode(&jr); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeErr(w, code, fmt.Errorf("bad body: %w", err))
			return
		}
		req, err := buildRequest(jr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if jr.Wait {
			// Synchronous submissions live and die with the connection.
			req.Ctx = r.Context()
		}
		j, err := p.Submit(r.Context(), req)
		if err != nil {
			if after, ok := RetryAfter(err); ok {
				w.Header().Set("Retry-After", fmt.Sprint(int64((after+time.Second-1)/time.Second)))
			}
			writeErr(w, errCode(err), err)
			return
		}
		if !jr.Wait {
			writeJSON(w, http.StatusAccepted, jobResponse(j))
			return
		}
		if _, err := j.Wait(r.Context()); err != nil && errors.Is(err, r.Context().Err()) {
			writeErr(w, http.StatusGatewayTimeout, err)
			return
		}
		writeJSON(w, errCode(j.Err()), jobResponse(j))
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j := p.Job(r.PathValue("id"))
		if j == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, errCode(j.Err()), jobResponse(j))
	})

	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		j := p.Job(r.PathValue("id"))
		if j == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		t := j.Trace()
		if t == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("job %s has no trace (pool runs without an observer)", j.ID))
			return
		}
		writeJSON(w, http.StatusOK, t)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j := p.Job(r.PathValue("id"))
		if j == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		j.Cancel()
		writeJSON(w, http.StatusAccepted, jobResponse(j))
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, p.Stats())
	})

	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		if p.Observer().T() == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("pool has no observer"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = p.WriteTrace(w)
	})

	mux.HandleFunc("GET /v1/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		snap := p.FlightSnapshot()
		if snap.Capacity == 0 {
			writeErr(w, http.StatusNotFound, fmt.Errorf("flight recorder disabled"))
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		deviceHealth := make(map[string]string, len(p.devices))
		inRotation := 0
		var rotationBytes int64
		for _, d := range p.devices {
			h := d.health.current()
			deviceHealth[d.spec.Name] = h.String()
			if h != Quarantined {
				inRotation++
				rotationBytes += d.spec.MemoryBytes
			}
		}
		breakerOpen, _ := p.breaker.snapshot()
		status := "ok"
		switch {
		case inRotation == 0:
			status = "unavailable"
		case breakerOpen || inRotation < len(p.devices):
			status = "degraded"
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":        status,
			"devices":       len(p.devices),
			"in_rotation":   inRotation,
			"device_health": deviceHealth,
			"breaker_open":  breakerOpen,
			"closed":        p.closed.Load(),
			// Admission declares a template infeasible only when it fits
			// no placement at all — neither any single in-rotation device
			// nor a partition across them. gang_capable says whether the
			// partition fallback is currently available (≥2 in rotation);
			// in_rotation_memory_bytes is the aggregate memory a gang can
			// draw on.
			"gang_capable":             inRotation >= 2,
			"in_rotation_memory_bytes": rotationBytes,
		})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		reg := p.Observer().M()
		if reg == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("pool has no observer"))
			return
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})

	return mux
}
