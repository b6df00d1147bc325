package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The program's metric lists and BENCHMARK.json must say the same thing.
func TestBenchmarkFileDeclaresWhatTheProgramPrints(t *testing.T) {
	b := readBenchmarkFile(t)
	compare := func(kind string, got []declared, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(got), len(want))
		}
		byName := map[string]declared{}
		for _, d := range got {
			if _, dup := byName[d.Name]; dup {
				t.Errorf("%s: %s declared twice", kind, d.Name)
			}
			byName[d.Name] = d
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: %q with unit %q is outside the allowed alphabet", kind, d.Name, d.Unit)
			}
		}
		for _, w := range want {
			d, ok := byName[w.name]
			switch {
			case !ok:
				t.Errorf("%s: %s is printed but not declared", kind, w.name)
			case d.Unit != w.unit || d.Better != better(w.name):
				t.Errorf("%s: %s declared as %s/%s, printed as %s/%s", kind, w.name, d.Unit, d.Better, w.unit, better(w.name))
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end: %s has bound %v", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) > 128 {
		t.Errorf("per_layer: %d metrics, the limit is 128", len(b.PerLayer))
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || strings.ContainsAny(b.Workloads[i].Why, "\n") || len(b.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: %+v, the program has %s", i, b.Workloads[i], w.name)
		}
		if n := int(float64(b.RunSeconds)*w.opsPerSecond) * w.clients; n < minTimedOps {
			t.Errorf("%s: run_seconds %d gives %d timed ops, fewer than %d", w.name, b.RunSeconds, n, minTimedOps)
		}
	}
}

// Every workload, once plain and once traced, with two ops per client: the
// result carries exactly the declared metrics, with their units, and no
// op fails. -short leaves out the one slow case, the serve_mixed trace
// (two warm pools and a Large CNN job: 7 of the 18 s).
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, defs := w.name+"/end_to_end", endToEnd
			if traced {
				name, defs = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				if testing.Short() && traced && w.name == "serve_mixed" {
					t.Skip("slow")
				}
				var stderr bytes.Buffer
				cfg := config{workload: w, seed: 11, opsPerClient: 2, traced: traced, setups: 1}
				if traced {
					cfg.tracePath = filepath.Join(t.TempDir(), "trace.json")
				}
				st, res, err := measure(cfg, &stderr)
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != 2*w.clients {
					t.Errorf("correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if st.Seed != 11 || st.GOMAXPROCS < 1 || st.GoVersion == "" || st.Ops != res.Attempted || st.TimedS <= 0 {
					t.Errorf("stamp %+v", st)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("%s: printed %+v (present %v), declared unit %s", d.name, m, ok, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("%s = %v: an end-to-end metric is never 0", d.name, m.Value)
					}
				}
				if traced {
					raw, err := os.ReadFile(cfg.tracePath)
					if err != nil || !bytes.Contains(raw, []byte(`"spans":[{`)) {
						t.Errorf("trace file: %v, %d bytes", err, len(raw))
					}
				}
			})
		}
	}
}

func TestRunRejectsTooFewOps(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "compile_cold", "-seconds", "1"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "timed ops") {
		t.Errorf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}
