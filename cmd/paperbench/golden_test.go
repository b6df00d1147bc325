package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the paper-output goldens")

// unpinned are the catalog entries whose stdout has no golden, with the
// reason. Every other entry is pinned, so a new entry gets a golden by
// default.
var unpinned = map[string]string{
	"ext serve":       "the pool places jobs by host timing, so per-device columns move run to run",
	"ext chaos":       "the pool places jobs by host timing, so migration and per-device counts move run to run",
	"ext servesteady": "the pool places jobs by host timing, so pin hits and H2D per job move run to run",
}

// TestPaperOutputGolden runs each pinned experiment as `paperbench
// -<flag> <name>` would, with the command's default flags, and compares
// its stdout with testdata/<flag>_<name>.golden. Every printed number is
// modeled, so the goldens are machine-independent. Table 1's optimized
// columns split the edge and CNN templates heavily, so a compile that
// splits differently fails here. An entry that writes a -trace must write
// a valid Chrome trace, and exactly the entries whose doc line names
// -trace write one. Regenerate with -update only for an intended change
// to a result.
func TestPaperOutputGolden(t *testing.T) {
	for _, x := range catalog {
		if _, skip := unpinned[x.flag+" "+x.name]; skip {
			continue
		}
		t.Run(x.flag+"_"+x.name, func(t *testing.T) {
			var trace bytes.Buffer
			got, err := stdoutOf(func() error {
				return x.run(env{seed: 2009, trace: &trace})
			})
			if err != nil {
				t.Fatal(err)
			}
			if wrote, documented := trace.Len() > 0, strings.Contains(x.doc, "-trace"); wrote != documented {
				t.Errorf("-%s %s wrote a trace: %v; its doc line names -trace: %v", x.flag, x.name, wrote, documented)
			}
			if trace.Len() > 0 {
				if _, err := obs.ValidateChrome(trace.Bytes()); err != nil {
					t.Errorf("-%s %s trace: %v", x.flag, x.name, err)
				}
			}
			golden := filepath.Join("testdata", x.flag+"_"+x.name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			exp, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, exp) {
				t.Fatalf("-%s %s output differs from %s (run with -update to regenerate)\ngot:\n%s\nwant:\n%s",
					x.flag, x.name, golden, got, exp)
			}
		})
	}
	for p := range unpinned {
		selector, name, _ := strings.Cut(p, " ")
		if sel, err := selectExperiments(false, map[string]string{selector: name}); err != nil || len(sel) != 1 {
			t.Errorf("unpinned entry %q names no catalog entry", p)
		}
	}
}

// stdoutOf runs f with os.Stdout redirected into a pipe and returns what
// it printed.
func stdoutOf(f func() error) ([]byte, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	saved := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = saved
	w.Close()
	b := <-out
	r.Close()
	return b, ferr
}
