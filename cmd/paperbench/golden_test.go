package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the paper-output goldens")

// paperOutputs are the catalog entries whose stdout is pinned: every paper
// table and figure plus the overlap extension, all modeled and so
// machine-independent. Each golden is named <flag>_<name>.golden.
var paperOutputs = []string{
	"table 1", "table 2",
	"fig 1c", "fig 2", "fig 3", "fig 6", "fig 8",
	"ext overlap",
}

// TestPaperOutputGolden runs each pinned experiment as `paperbench
// -<flag> <name>` would, with the command's default flags, and compares
// its stdout with testdata. Table 1's optimized columns split the edge
// and CNN templates heavily, so a compile that splits differently fails
// here. Regenerate with -update only for an intended change to a paper
// result.
func TestPaperOutputGolden(t *testing.T) {
	want := map[string]bool{}
	for _, p := range paperOutputs {
		want[p] = true
	}
	for _, x := range catalog {
		if !want[x.flag+" "+x.name] {
			continue
		}
		delete(want, x.flag+" "+x.name)
		t.Run(x.flag+"_"+x.name, func(t *testing.T) {
			got, err := stdoutOf(func() error {
				_, err := x.run(env{seed: 2009})
				return err
			})
			if err != nil {
				t.Fatal(err)
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
	for p := range want {
		t.Errorf("pinned output %q names no catalog entry", p)
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
