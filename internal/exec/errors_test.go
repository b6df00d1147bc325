package exec

// Satellite tests: exec.Run must reject corrupted plans with a precise
// error for every dynamically-enforced invariant, and every failure must
// still return a partial Report (stats so far, peak residency).

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/sched"
)

// corruptCase mutates a valid plan's steps into an invalid sequence.
type corruptCase struct {
	name    string
	corrupt func(t *testing.T, g *graph.Graph, steps []sched.Step) []sched.Step
	wantErr string
	// lateFail: the corruption fails mid-plan, after real work, so the
	// partial report must show activity.
	lateFail bool
}

func firstStep(t *testing.T, steps []sched.Step, kind sched.StepKind) int {
	t.Helper()
	for i, s := range steps {
		if s.Kind == kind {
			return i
		}
	}
	t.Fatalf("plan has no %v step", kind)
	return -1
}

func lastStep(t *testing.T, steps []sched.Step, kind sched.StepKind) int {
	t.Helper()
	for i := len(steps) - 1; i >= 0; i-- {
		if steps[i].Kind == kind {
			return i
		}
	}
	t.Fatalf("plan has no %v step", kind)
	return -1
}

func removeStep(steps []sched.Step, i int) []sched.Step {
	out := make([]sched.Step, 0, len(steps)-1)
	out = append(out, steps[:i]...)
	return append(out, steps[i+1:]...)
}

func insertStep(steps []sched.Step, i int, s sched.Step) []sched.Step {
	out := make([]sched.Step, 0, len(steps)+1)
	out = append(out, steps[:i]...)
	out = append(out, s)
	return append(out, steps[i:]...)
}

func TestRunRejectsCorruptedPlans(t *testing.T) {
	cases := []corruptCase{
		{
			name: "launch with non-resident operand",
			corrupt: func(t *testing.T, g *graph.Graph, steps []sched.Step) []sched.Step {
				return removeStep(steps, firstStep(t, steps, sched.StepH2D))
			},
			wantErr:  "with non-resident",
			lateFail: true,
		},
		{
			name: "H2D of already-resident buffer",
			corrupt: func(t *testing.T, g *graph.Graph, steps []sched.Step) []sched.Step {
				i := firstStep(t, steps, sched.StepH2D)
				return insertStep(steps, i+1, steps[i])
			},
			wantErr:  "H2D of already-resident",
			lateFail: true,
		},
		{
			name: "free of non-resident buffer",
			corrupt: func(t *testing.T, g *graph.Graph, steps []sched.Step) []sched.Step {
				i := firstStep(t, steps, sched.StepH2D)
				return insertStep(steps, 0, sched.Step{Kind: sched.StepFree, Buf: steps[i].Buf})
			},
			wantErr: "free of non-resident",
		},
		{
			name: "D2H of non-resident buffer",
			corrupt: func(t *testing.T, g *graph.Graph, steps []sched.Step) []sched.Step {
				i := firstStep(t, steps, sched.StepD2H)
				return insertStep(steps, 0, steps[i])
			},
			wantErr: "D2H of non-resident",
		},
		{
			name: "output never reaches the host",
			corrupt: func(t *testing.T, g *graph.Graph, steps []sched.Step) []sched.Step {
				i := lastStep(t, steps, sched.StepD2H)
				// Drop both the copy-out and the free that follows it, so
				// the miss is reported as a lost output, not a leak.
				out := removeStep(steps, i)
				for j := i; j < len(out); j++ {
					if out[j].Kind == sched.StepFree && out[j].Buf == steps[i].Buf {
						return removeStep(out, j)
					}
				}
				return out
			},
			wantErr:  "did not reach the host",
			lateFail: true,
		},
		{
			name: "buffers leaked on the device",
			corrupt: func(t *testing.T, g *graph.Graph, steps []sched.Step) []sched.Step {
				return removeStep(steps, lastStep(t, steps, sched.StepFree))
			},
			wantErr:  "leaked on the device",
			lateFail: true,
		},
		{
			name: "H2D with invalid host copy",
			corrupt: func(t *testing.T, g *graph.Graph, steps []sched.Step) []sched.Step {
				// Copy a non-input buffer in before anything computed it:
				// the host holds no valid bytes for it.
				i := firstStep(t, steps, sched.StepD2H)
				return insertStep(steps, 0, sched.Step{Kind: sched.StepH2D, Buf: steps[i].Buf})
			},
			wantErr: "host copy is invalid",
		},
	}

	for _, mode := range []Mode{Materialized, Accounting} {
		for _, tc := range cases {
			t.Run(tc.name+"/"+modeName(mode), func(t *testing.T) {
				g, in := edgeGraph(t, 32, 32, 4)
				plan := compileFor(t, g, 400)
				bad := &sched.Plan{
					Steps:      tc.corrupt(t, g, append([]sched.Step(nil), plan.Steps...)),
					Order:      plan.Order,
					PeakFloats: plan.PeakFloats,
				}
				rep, err := Run(context.Background(), g, bad, in, Options{Mode: mode, Device: gpu.New(gpu.Custom("t", 1<<20))})
				if err == nil {
					t.Fatalf("corrupted plan must fail")
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				// Satellite: failures return a partial report.
				if rep == nil {
					t.Fatal("want partial report alongside the error")
				}
				if tc.lateFail && rep.Stats.TotalFloats() == 0 && rep.PeakResidentBytes == 0 {
					t.Fatalf("partial report is empty: %+v", rep.Stats)
				}
			})
		}
	}
}

func modeName(m Mode) string {
	if m == Materialized {
		return "materialized"
	}
	return "accounting"
}

// The hardened static verifier must catch each corruption Run rejects
// dynamically (for step-sequence invariants; host-copy validity is
// inherently dynamic).
func TestVerifyCatchesCorruptions(t *testing.T) {
	g, _ := edgeGraph(t, 32, 32, 4)
	plan := compileFor(t, g, 400)
	for _, tc := range []corruptCase{
		{name: "missing H2D", corrupt: func(t *testing.T, g *graph.Graph, s []sched.Step) []sched.Step {
			return removeStep(s, firstStep(t, s, sched.StepH2D))
		}},
		{name: "double H2D", corrupt: func(t *testing.T, g *graph.Graph, s []sched.Step) []sched.Step {
			i := firstStep(t, s, sched.StepH2D)
			return insertStep(s, i+1, s[i])
		}},
		{name: "early free", corrupt: func(t *testing.T, g *graph.Graph, s []sched.Step) []sched.Step {
			i := firstStep(t, s, sched.StepH2D)
			return insertStep(s, 0, sched.Step{Kind: sched.StepFree, Buf: s[i].Buf})
		}},
		{name: "early D2H", corrupt: func(t *testing.T, g *graph.Graph, s []sched.Step) []sched.Step {
			return insertStep(s, 0, s[firstStep(t, s, sched.StepD2H)])
		}},
		{name: "lost output", corrupt: func(t *testing.T, g *graph.Graph, s []sched.Step) []sched.Step {
			i := lastStep(t, s, sched.StepD2H)
			out := removeStep(s, i)
			for j := i; j < len(out); j++ {
				if out[j].Kind == sched.StepFree && out[j].Buf == s[i].Buf {
					return removeStep(out, j)
				}
			}
			return out
		}},
		{name: "leak", corrupt: func(t *testing.T, g *graph.Graph, s []sched.Step) []sched.Step {
			return removeStep(s, lastStep(t, s, sched.StepFree))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := &sched.Plan{
				Steps:      tc.corrupt(t, g, append([]sched.Step(nil), plan.Steps...)),
				Order:      plan.Order,
				PeakFloats: plan.PeakFloats,
			}
			if err := sched.Verify(g, bad, 1<<20); err == nil {
				t.Fatal("verifier must reject the corrupted plan")
			}
		})
	}
	if err := sched.Verify(g, plan, 400); err != nil {
		t.Fatalf("verifier must accept the valid plan: %v", err)
	}
}

// Every driver has one error exit: a step that fails mid-plan on an
// under-sized device yields ErrOOM, a non-nil partial report, and a
// pristine device — the same guarantee cancellation already gave.
func TestFailedRunLeavesDevicePristine(t *testing.T) {
	// Planned against 1 MiB, run on 6 KiB: the 4 KiB image uploads, then
	// the next allocation fails with that upload still live.
	g, in := edgeGraph(t, 32, 32, 3)
	plan, err := sched.Heuristic(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pg, pin, pp, specs := partitionFixture(t)

	for _, tc := range []struct {
		name string
		run  func() (*Report, []*gpu.Device, error)
	}{
		{"sequential", func() (*Report, []*gpu.Device, error) {
			dev := gpu.New(gpu.Custom("tiny", 6<<10))
			rep, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: dev})
			return rep, []*gpu.Device{dev}, err
		}},
		{"pipelined", func() (*Report, []*gpu.Device, error) {
			dev := gpu.New(gpu.Custom("tiny", 6<<10))
			rep, err := Run(context.Background(), g, plan, in, Options{Mode: Materialized, Device: dev, Pipeline: true})
			return rep, []*gpu.Device{dev}, err
		}},
		{"partitioned", func() (*Report, []*gpu.Device, error) {
			// Same names as the plan's specs, a fraction of the memory.
			devs := []*gpu.Device{
				gpu.New(gpu.Custom(specs[0].Name, specs[0].MemoryBytes)),
				gpu.New(gpu.Custom(specs[1].Name, specs[1].MemoryBytes/4)),
			}
			pr, err := RunPartitioned(context.Background(), pg, pp, devs, pin, Options{Mode: Materialized})
			if pr == nil {
				return nil, devs, err
			}
			return pr.Parts[1], devs, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, devs, err := tc.run()
			if !errors.Is(err, ErrOOM) {
				t.Fatalf("err = %v, want ErrOOM", err)
			}
			if rep == nil {
				t.Fatal("failed run returned no partial report")
			}
			for _, d := range devs {
				if used := d.Allocator().UsedBytes(); used != 0 {
					t.Errorf("%s holds %d bytes after the failed run", d.Spec.Name, used)
				}
			}
		})
	}
}
