package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/templates"
	"repro/internal/workload"
)

// TestSparseExperimentSmall runs the sparse experiment at CI scale.
// Sparse itself errors if any schedule's outputs or modeled stats
// diverge from the static run, so success asserts the equivalence
// invariant end to end.
func TestSparseExperimentSmall(t *testing.T) {
	res, err := Sparse(192)
	if err != nil {
		t.Fatal(err)
	}
	nSched := len(loadbalance.Names())
	if got, want := len(res.Kernel), 2*nSched; got != want {
		t.Fatalf("kernel rows = %d, want %d", got, want)
	}
	if got, want := len(res.Templates), 2*2*nSched; got != want {
		t.Fatalf("template rows = %d, want %d", got, want)
	}
	for _, r := range res.Kernel {
		if !r.OutputsEqual {
			t.Errorf("kernel %s/%s outputs diverged", r.Dist, r.Schedule)
		}
	}
	for _, r := range res.Templates {
		if !r.OutputsEqual || !r.StatsEqual {
			t.Errorf("%s %s/%s diverged (outputs=%t stats=%t)",
				r.Template, r.Dist, r.Schedule, r.OutputsEqual, r.StatsEqual)
		}
	}
	if res.PackedFloats >= res.DenseFloats {
		t.Fatalf("packed footprint %d not below dense %d", res.PackedFloats, res.DenseFloats)
	}
}

// TestScheduleEquivalenceAcrossWorkloads is the cross-domain stress form
// of the invariant: every workload — dense templates included — must
// produce bit-identical outputs and identical modeled stats under all
// three schedules. Run under -race in CI, this also shakes out data
// races in the concurrent row shards.
func TestScheduleEquivalenceAcrossWorkloads(t *testing.T) {
	pl := workload.PowerLawCSR(7, 256, 12, 0.85)
	cases := []struct {
		name  string
		build func() (*graph.Graph, exec.Inputs, error)
	}{
		{"edge-256", workload.Spec{Template: "edge", H: 256, W: 256, Kernel: 16, Orientations: 4,
			Seed: 11, Materialized: true}.Build},
		{"cnn-small-160x120", workload.Spec{Template: "cnn-small", H: 160, W: 120,
			Seed: 13, Materialized: true}.Build},
		{"pagerank-powerlaw-256", func() (*graph.Graph, exec.Inputs, error) {
			g, bufs, err := templates.PageRank(templates.SparseConfig{Structure: pl, Iterations: 4})
			if err != nil {
				return nil, nil, err
			}
			return g, workload.PageRankInputs(bufs, pl), nil
		}},
		{"bfs-powerlaw-256", func() (*graph.Graph, exec.Inputs, error) {
			g, bufs, err := templates.BFSLevels(templates.SparseConfig{Structure: pl, Iterations: 4})
			if err != nil {
				return nil, nil, err
			}
			return g, workload.BFSInputs(bufs, pl, 3), nil
		}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var refOut exec.Outputs
			var refStats gpu.Stats
			for i, name := range loadbalance.Names() {
				g, in, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				svc := core.NewService(core.WithDevice(gpu.TeslaC870()), core.WithSchedule(name))
				compiled, _, err := svc.Compile(ctx, g)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := svc.Execute(ctx, compiled, in)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					refOut, refStats = rep.Outputs, rep.Stats
					continue
				}
				if rep.Stats != refStats {
					t.Fatalf("modeled stats diverged under %s:\n%+v\nvs static\n%+v",
						name, rep.Stats, refStats)
				}
				if len(rep.Outputs) != len(refOut) {
					t.Fatalf("output count diverged under %s", name)
				}
				for id, out := range rep.Outputs {
					ref, ok := refOut[id]
					if !ok || !out.Equal(ref) {
						t.Fatalf("output %d not bit-identical under %s", id, name)
					}
				}
			}
		})
	}
}
