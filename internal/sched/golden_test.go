package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/gpu"
	"repro/internal/split"
	"repro/internal/templates"
)

// TestResidencyDigestsGolden pins what the plan cache and the serving
// layer's pin sets key on: the (ID, Digest, Steps) list of
// AnalyzeResidency's shareable buffers, the rest of its artifact (shared
// and transient bytes, lead steps, tail), the plan's String(), and the
// step DAG StepDeps derives, for the heuristic plan of the Large CNN on the
// Tesla C870 (unsplit) and of the Small CNN 160×120 in the 512 KiB arena
// of the benchmark's executor workloads (split into halo strips). Any
// encoding or order drift in the compile-time passes fails here.
func TestResidencyDigestsGolden(t *testing.T) {
	arena := gpu.Custom("bench-arena", 512<<10)
	arena.Headroom = 0.7
	cases := []struct {
		name                             string
		cfg                              templates.CNNConfig
		spec                             gpu.Spec
		shareable, shape, plan, stepDeps string
	}{
		{"large-cnn-640x480/c870", templates.LargeCNN(640, 480), gpu.TeslaC870(),
			"ed5e33a8bbf578f7ccdcc92dd26822f2f1174ec35c530b160e92bf1ec24fd322",
			"0383ebc85fe6cdc9c349d748666c006395c9d4943b34eb3f38546c3459f415d2",
			"2b6d3333e76f7a9f322bc052918f55bed77d3de51a51fb1e4dff39d5589b1b5a",
			"15cc5c9fde7917af7b9402ffd28bc0aa28ce5da1b85f86318c49bde0e94e49b2"},
		{"small-cnn-160x120/arena", templates.SmallCNN(160, 120), arena,
			"a8608d15dd527af57582838046ec23a0fc0aefffbbe9f3a84c398af28b04e34d",
			"103ea463c719108d86a36b20c2c7b41ddd9f0ffdb685fb3c47c3571479c4a216",
			"2b7615feec8717944876c4fa866694c1ee5e96122c19907e4b08baf1062816a5",
			"99b4f086608d82a9ce00616b76d4996ff9a3ede90ccbbaa59a17dd96603f25a9"},
	}
	sum := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}
	for _, c := range cases {
		capacity := c.spec.PlannerCapacity()
		g, _, err := templates.CNN(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := split.Apply(g, split.Options{Capacity: capacity}); err != nil {
			t.Fatal(err)
		}
		p, err := Heuristic(g, capacity)
		if err != nil {
			t.Fatal(err)
		}
		r, err := AnalyzeResidency(p, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		d, err := StepDeps(p)
		if err != nil {
			t.Fatal(err)
		}
		var shareable string
		for _, b := range r.Shareable {
			shareable += fmt.Sprintf("%d %s %v\n", b.ID, b.Digest, b.Steps)
		}
		shape := fmt.Sprint(r.SharedBytes, r.TransientPeakBytes, r.LeadSteps, r.TailSec)
		got := [4]string{sum(shareable), sum(shape), sum(p.String()), sum(fmt.Sprint(d.Deps, d.Edges))}
		want := [4]string{c.shareable, c.shape, c.plan, c.stepDeps}
		for i, what := range []string{"shareable list", "residency shape", "plan", "step DAG"} {
			if got[i] != want[i] {
				t.Errorf("%s: %s hash = %s, want %s", c.name, what, got[i], want[i])
			}
		}
	}
}
