package codegen

import (
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/templates"
)

func planAndGraph(t *testing.T) (*sched.Plan, func() string) {
	t.Helper()
	g, err := templates.EdgeDetectFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Heuristic(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	return plan, func() string { return CUDA(g, plan, "fig3") }
}

func TestCUDAStructure(t *testing.T) {
	g, err := templates.EdgeDetectFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Heuristic(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := CUDA(g, plan, "fig3")

	h2d, d2h, free, launch := plan.Counts()
	if got := strings.Count(src, "cudaMemcpyHostToDevice"); got != h2d {
		t.Fatalf("H2D memcpys = %d, want %d", got, h2d)
	}
	if got := strings.Count(src, "cudaMemcpyDeviceToHost"); got != d2h {
		t.Fatalf("D2H memcpys = %d, want %d", got, d2h)
	}
	if got := strings.Count(src, "cudaFree"); got < free {
		t.Fatalf("frees = %d, want >= %d", got, free)
	}
	if got := strings.Count(src, "launch_"); got < launch {
		t.Fatalf("launches = %d, want >= %d", got, launch)
	}
	for _, want := range []string{
		"#include <cuda_runtime.h>",
		"CUDA_CHECK(cudaMalloc",
		"extern void launch_scale",
		"extern void launch_max",
		"int execute_fig3(void)",
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("CUDA source missing %q", want)
		}
	}
}

// The transfer order in the generated CUDA code must match the plan
// exactly: the i-th memcpy corresponds to the i-th transfer step.
func TestCUDAPreservesStepOrder(t *testing.T) {
	plan, gen := planAndGraph(t)
	src := gen()
	var wantKinds []string
	for _, s := range plan.Steps {
		switch s.Kind {
		case sched.StepH2D:
			wantKinds = append(wantKinds, "cudaMemcpyHostToDevice")
		case sched.StepD2H:
			wantKinds = append(wantKinds, "cudaMemcpyDeviceToHost")
		}
	}
	var gotKinds []string
	for _, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "cudaMemcpyHostToDevice") {
			gotKinds = append(gotKinds, "cudaMemcpyHostToDevice")
		} else if strings.Contains(line, "cudaMemcpyDeviceToHost") {
			gotKinds = append(gotKinds, "cudaMemcpyDeviceToHost")
		}
	}
	if len(gotKinds) != len(wantKinds) {
		t.Fatalf("memcpy count %d, want %d", len(gotKinds), len(wantKinds))
	}
	for i := range wantKinds {
		if gotKinds[i] != wantKinds[i] {
			t.Fatalf("memcpy %d is %s, want %s", i, gotKinds[i], wantKinds[i])
		}
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"E1'":    "E1_p",
		"max.1":  "max_1",
		"9lives": "v9lives",
		"":       "v",
		"ok":     "ok",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Fatalf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// Different templates generate different plans/kernels; retargeting the
// same template to a smaller device yields more transfers in the code.
func TestCodegenRetargeting(t *testing.T) {
	g, err := templates.EdgeDetectFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := sched.Heuristic(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	small, err := sched.Heuristic(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	srcBig := CUDA(g, big, "fig3")
	srcSmall := CUDA(g, small, "fig3")
	cb := strings.Count(srcBig, "cudaMemcpy")
	cs := strings.Count(srcSmall, "cudaMemcpy")
	if cs <= cb {
		t.Fatalf("smaller device should need more memcpys: %d vs %d", cs, cb)
	}
}

func TestKernelStubs(t *testing.T) {
	g, err := templates.EdgeDetectFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Heuristic(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	stubs := KernelStubs(plan)
	// The Fig. 3 template uses scale, remap, and max operators.
	for _, want := range []string{"void launch_scale", "void launch_remap", "void launch_max"} {
		if !strings.Contains(stubs, want) {
			t.Fatalf("stubs missing %q:\n%s", want, stubs)
		}
	}
	// Every extern declared in the CUDA source has a stub definition.
	cuda := CUDA(g, plan, "fig3")
	for _, line := range strings.Split(cuda, "\n") {
		if !strings.HasPrefix(line, "extern void launch_") {
			continue
		}
		name := strings.TrimPrefix(line, "extern ")
		name = name[:strings.Index(name, "(")]
		if !strings.Contains(stubs, name+"(") {
			t.Fatalf("no stub for %q", name)
		}
	}
}
