package graph_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFingerprintGolden pins Fingerprint() of every corpus graph. The plan
// cache and the serving layer's pin sets key on it, so any drift in the
// encoding or the walk order fails here instead of silently splitting a
// cache. Regenerate with -update only for an intended encoding change.
func TestFingerprintGolden(t *testing.T) {
	var buf bytes.Buffer
	eachCorpusGraph(t, func(t *testing.T, name string, g *graph.Graph) {
		fmt.Fprintf(&buf, "%s\t%s\n", name, g.Fingerprint())
	})
	golden := filepath.Join("testdata", "fingerprints.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("fingerprints differ from %s (run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}
}
