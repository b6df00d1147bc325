package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/obs"
)

func postJob(t *testing.T, srv *httptest.Server, body string) (*http.Response, JobResponse) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp, jr
}

// A synchronous materialized submit must come back 200 with a finished
// job and a populated report.
func TestHTTPSubmitWaitReturnsReport(t *testing.T) {
	p := NewPool(WithDevices(gpu.TeslaC870()), WithObserver(obs.New()))
	defer p.Close()
	srv := httptest.NewServer(NewHandler(p))
	defer srv.Close()

	resp, jr := postJob(t, srv,
		`{"template":"edge","h":64,"w":48,"mode":"materialized","seed":7,"wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %+v", resp.StatusCode, jr)
	}
	if jr.State != StateDone || jr.Report == nil {
		t.Fatalf("job = %+v", jr)
	}
	if jr.Report.KernelLaunches == 0 || jr.Report.TotalFloats == 0 {
		t.Fatalf("report looks empty: %+v", jr.Report)
	}
}

// An async submit is 202; polling the job URL must converge to done.
func TestHTTPAsyncSubmitAndPoll(t *testing.T) {
	p := NewPool(WithDevices(gpu.TeslaC870()))
	defer p.Close()
	srv := httptest.NewServer(NewHandler(p))
	defer srv.Close()

	resp, jr := postJob(t, srv, `{"template":"cnn-small","h":64,"w":48}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if jr.ID == "" {
		t.Fatalf("no job id in %+v", jr)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + jr.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got JobResponse
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if got.State == StateDone {
			if got.Report == nil || got.Report.SimSeconds <= 0 {
				t.Fatalf("done job has no report: %+v", got)
			}
			break
		}
		if got.State == StateFailed {
			t.Fatalf("job failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Submit errors map onto HTTP status codes.
func TestHTTPErrorMapping(t *testing.T) {
	gate := make(chan struct{})
	p := NewPool(WithDevices(gpu.TeslaC870()), WithStreams(1), WithQueueDepth(1), withGate(gate))
	defer p.Close()
	srv := httptest.NewServer(NewHandler(p))
	defer srv.Close()

	if resp, _ := postJob(t, srv, `{"template":"warp","h":8,"w":8}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown template: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJob(t, srv, `{"template":"edge","h":-1,"w":8}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad dims: status %d, want 400", resp.StatusCode)
	}
	oversized := `{"template":"` + strings.Repeat("a", maxJobBodyBytes) + `"}`
	if resp, _ := postJob(t, srv, oversized); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over the limit: status %d, want 413", resp.StatusCode)
	}
	if s := NewServer("127.0.0.1:0", p); s.ReadHeaderTimeout != readHeaderTimeout || s.Handler == nil {
		t.Fatalf("NewServer: ReadHeaderTimeout %v, handler %v; want %v and the pool handler",
			s.ReadHeaderTimeout, s.Handler, readHeaderTimeout)
	}
	r, err := http.Get(srv.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", r.StatusCode)
	}

	// Freeze the single worker, fill the depth-1 queue, then overflow it.
	if resp, _ := postJob(t, srv, `{"template":"edge","h":40,"w":32}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job: status %d", resp.StatusCode)
	}
	if resp, _ := postJob(t, srv, `{"template":"edge","h":64,"w":48}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, want 429", resp.StatusCode)
	}
	close(gate)
}

// An infeasible template is 422 with the sentinel's message.
func TestHTTPInfeasibleIs422(t *testing.T) {
	p := NewPool(WithDevices(gpu.Custom("tiny", 4096)),
		WithServiceOptions(core.WithCapacity(3)))
	defer p.Close()
	srv := httptest.NewServer(NewHandler(p))
	defer srv.Close()
	resp, _ := postJob(t, srv, `{"template":"edge","h":40,"w":32}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
}

// The operational endpoints respond and parse.
func TestHTTPHealthStatsMetrics(t *testing.T) {
	o := obs.New()
	p := NewPool(WithDevices(gpu.TeslaC870(), gpu.GeForce8800GTX()), WithObserver(o))
	defer p.Close()
	srv := httptest.NewServer(NewHandler(p))
	defer srv.Close()

	if _, jr := postJob(t, srv, `{"template":"edge","h":40,"w":32,"wait":true}`); jr.State != StateDone {
		t.Fatalf("warmup job: %+v", jr)
	}

	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(r.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if health["status"] != "ok" || health["devices"].(float64) != 2 {
		t.Fatalf("healthz = %v", health)
	}

	r, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(st.Devices) != 2 || st.ModeledMakespanSec <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.SLOs) == 0 || st.SLOs[0].EndToEnd.Count < 1 {
		t.Fatalf("stats missing SLO section: %+v", st.SLOs)
	}

	r, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if _, err := text.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type = %q", ct)
	}
	check, err := obs.ValidatePrometheus(text.Bytes())
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus exposition: %v\n%s", err, text.String())
	}
	if check.Families == 0 {
		t.Fatal("/metrics exposed no families")
	}
	if !strings.Contains(text.String(), "serve_submitted") {
		t.Fatalf("metrics text missing serve counters:\n%s", text.String())
	}

	r, err = http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if snap.Counters["serve.submitted"] < 1 {
		t.Fatalf("metrics json = %+v", snap.Counters)
	}
}

// The observability endpoints: a finished job's lifecycle trace, the
// pool-wide Chrome trace, and the flight-recorder snapshot — plus their
// 404s on an unobserved pool.
func TestHTTPTraceAndFlightEndpoints(t *testing.T) {
	o := obs.New()
	p := NewPool(WithDevices(gpu.TeslaC870()), WithObserver(o))
	defer p.Close()
	srv := httptest.NewServer(NewHandler(p))
	defer srv.Close()

	_, jr := postJob(t, srv, `{"template":"edge","h":64,"w":48,"wait":true}`)
	if jr.State != StateDone {
		t.Fatalf("job = %+v", jr)
	}

	r, err := http.Get(srv.URL + "/v1/jobs/" + jr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", r.StatusCode)
	}
	var tr JobTrace
	if err := json.NewDecoder(r.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if tr.ID != jr.ID || tr.State != StateDone || len(tr.Phases) == 0 {
		t.Fatalf("trace = %+v", tr)
	}

	if r, err = http.Get(srv.URL + "/v1/jobs/nope/trace"); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace status = %d", r.StatusCode)
	}

	if r, err = http.Get(srv.URL + "/v1/trace"); err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if _, err := chrome.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("pool trace status = %d", r.StatusCode)
	}
	if _, err := obs.ValidateChrome(chrome.Bytes()); err != nil {
		t.Fatalf("pool trace invalid: %v", err)
	}

	if r, err = http.Get(srv.URL + "/v1/debug/flightrecorder"); err != nil {
		t.Fatal(err)
	}
	var snap obs.FlightSnapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if snap.Capacity == 0 {
		t.Fatalf("flight snapshot = %+v", snap)
	}

	// An unobserved pool 404s all three.
	bare := NewPool(WithDevices(gpu.TeslaC870()))
	defer bare.Close()
	bsrv := httptest.NewServer(NewHandler(bare))
	defer bsrv.Close()
	_, jr = postJob(t, bsrv, `{"template":"edge","h":64,"w":48,"wait":true}`)
	for _, path := range []string{"/v1/jobs/" + jr.ID + "/trace", "/v1/trace", "/v1/debug/flightrecorder"} {
		r, err := http.Get(bsrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on unobserved pool = %d, want 404", path, r.StatusCode)
		}
	}
}
