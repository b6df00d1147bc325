package repro

import (
	"os/exec"
	"testing"
)

// TestBenchModuleTests runs the benchmark module's own tests, as CI's last
// step does. bench/ is a module of its own (replace repro => ../), so
// `go test ./...` here never compiles it: without this test a change to an
// internal API it uses, or to a fact its set-up checks (expected.json's
// plan facts and modeled seconds, the compile pass list), would first fail
// when the benchmark runs.
func TestBenchModuleTests(t *testing.T) {
	cmd := exec.Command("go", "test", "-short", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cd bench && go test -short ./...: %v\n%s", err, out)
	}
}
