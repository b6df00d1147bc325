// Package codegen is the final stage of the framework (paper §3.1): it
// takes the optimized execution plan and produces a hybrid CPU/GPU program
// that uses a lower-level framework — a CUDA-style C source (the paper's
// target) with one kernel launch per offload unit and the plan's transfer
// sequence, plus reference C stubs for the operator entry points it calls.
package codegen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/sched"
)

// sanitize converts a buffer or node name to a C identifier.
func sanitize(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == '\'':
			b.WriteString("_p")
		default:
			b.WriteByte('_')
		}
	}
	s := b.String()
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		s = "v" + s
	}
	return s
}

func bufSym(b *graph.Buffer) string {
	return fmt.Sprintf("%s_%d", sanitize(b.Name), b.ID)
}

// CUDA renders the plan as a CUDA C hybrid host/device program: device
// allocations, cudaMemcpy transfers, and one kernel invocation per offload
// unit, in exactly the plan's order. Kernels are declared as externs
// supplied by the operator library, as in the paper's flow.
func CUDA(g *graph.Graph, plan *sched.Plan, templateName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Generated execution plan for template %q.\n", templateName)
	fmt.Fprintf(&b, "// %d steps; transfers: %d floats.\n", len(plan.Steps), plan.TotalTransferFloats())
	b.WriteString("// Auto-generated - do not edit.\n\n")
	b.WriteString("#include <cuda_runtime.h>\n#include <stdio.h>\n\n")
	b.WriteString("#define CUDA_CHECK(call) do { cudaError_t e = (call); \\\n")
	b.WriteString("  if (e != cudaSuccess) { fprintf(stderr, \"%s\\n\", cudaGetErrorString(e)); return 1; } } while (0)\n\n")

	bufs := plan.Buffers()
	kinds := map[string]bool{}
	for _, n := range plan.Order {
		kinds[n.Op.Kind()] = true
	}
	kindList := make([]string, 0, len(kinds))
	for k := range kinds {
		kindList = append(kindList, k)
	}
	sort.Strings(kindList)
	b.WriteString("// Operator library kernels (implemented in the operator library .cu files).\n")
	for _, k := range kindList {
		fmt.Fprintf(&b, "extern void launch_%s(float** ins, int n_ins, float* out, int rows, int cols);\n",
			sanitize(k))
	}
	b.WriteString("\n")

	b.WriteString("// Host-side buffers are regions of the template's root arrays.\n")
	for _, buf := range bufs {
		fmt.Fprintf(&b, "extern float* host_%s; // %s, %d floats\n", bufSym(buf), buf.Shape(), buf.Size())
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "int execute_%s(void) {\n", sanitize(templateName))
	for _, buf := range bufs {
		fmt.Fprintf(&b, "  float* dev_%s = NULL;\n", bufSym(buf))
	}
	b.WriteString("\n")
	for _, s := range plan.Steps {
		switch s.Kind {
		case sched.StepH2D:
			sym := bufSym(s.Buf)
			fmt.Fprintf(&b, "  CUDA_CHECK(cudaMalloc((void**)&dev_%s, %d));\n", sym, s.Buf.Bytes())
			fmt.Fprintf(&b, "  CUDA_CHECK(cudaMemcpy(dev_%s, host_%s, %d, cudaMemcpyHostToDevice));\n",
				sym, sym, s.Buf.Bytes())
		case sched.StepD2H:
			sym := bufSym(s.Buf)
			fmt.Fprintf(&b, "  CUDA_CHECK(cudaMemcpy(host_%s, dev_%s, %d, cudaMemcpyDeviceToHost));\n",
				sym, sym, s.Buf.Bytes())
		case sched.StepFree:
			sym := bufSym(s.Buf)
			fmt.Fprintf(&b, "  CUDA_CHECK(cudaFree(dev_%s)); dev_%s = NULL;\n", sym, sym)
		case sched.StepLaunch:
			n := s.Node
			for _, ob := range n.OutputBuffers() {
				sym := bufSym(ob)
				fmt.Fprintf(&b, "  if (!dev_%s) CUDA_CHECK(cudaMalloc((void**)&dev_%s, %d));\n",
					sym, sym, ob.Bytes())
			}
			ins := n.InputBuffers()
			names := make([]string, len(ins))
			for i, ib := range ins {
				names[i] = "dev_" + bufSym(ib)
			}
			fmt.Fprintf(&b, "  { float* ins[] = {%s};\n", strings.Join(names, ", "))
			fmt.Fprintf(&b, "    launch_%s(ins, %d, dev_%s, %d, %d); } // %s\n",
				sanitize(n.Op.Kind()), len(ins), bufSym(n.Out.Bufs[0]),
				n.Out.Region.Rows, n.Out.Region.Cols, n.Name)
		}
	}
	b.WriteString("  return 0;\n}\n")
	return b.String()
}

// KernelStubs emits a companion C file with reference implementations of
// every launch_<kind> the generated CUDA program calls. The stubs run on
// the host (they are the operator library's CPU fallback); swapping them
// for tuned __global__ kernels is the device-specific work the framework
// deliberately leaves to the operator library (§3.1).
func KernelStubs(plan *sched.Plan) string {
	kinds := map[string]bool{}
	for _, n := range plan.Order {
		kinds[n.Op.Kind()] = true
	}
	kindList := make([]string, 0, len(kinds))
	for k := range kinds {
		kindList = append(kindList, k)
	}
	sort.Strings(kindList)

	var b strings.Builder
	b.WriteString("// Reference CPU implementations of the operator-library entry points.\n")
	b.WriteString("// Auto-generated - replace with tuned device kernels per platform.\n\n")
	b.WriteString("#include <math.h>\n#include <string.h>\n\n")
	for _, k := range kindList {
		fmt.Fprintf(&b, "void launch_%s(float** ins, int n_ins, float* out, int rows, int cols) {\n",
			sanitize(k))
		switch k {
		case "tanh":
			b.WriteString("  for (long i = 0; i < (long)rows * cols; i++) out[i] = tanhf(ins[0][i]);\n")
		case "add":
			b.WriteString("  for (long i = 0; i < (long)rows * cols; i++) {\n")
			b.WriteString("    float acc = 0; for (int j = 0; j < n_ins; j++) acc += ins[j][i];\n")
			b.WriteString("    out[i] = acc;\n  }\n")
		case "max", "absmax":
			b.WriteString("  for (long i = 0; i < (long)rows * cols; i++) {\n")
			if k == "absmax" {
				b.WriteString("    float m = fabsf(ins[0][i]);\n")
				b.WriteString("    for (int j = 1; j < n_ins; j++) { float v = fabsf(ins[j][i]); if (v > m) m = v; }\n")
			} else {
				b.WriteString("    float m = ins[0][i];\n")
				b.WriteString("    for (int j = 1; j < n_ins; j++) if (ins[j][i] > m) m = ins[j][i];\n")
			}
			b.WriteString("    out[i] = m;\n  }\n")
		case "scale", "remap", "bias":
			b.WriteString("  memcpy(out, ins[0], (long)rows * cols * sizeof(float));\n")
			b.WriteString("  // scale/offset/bias parameters are baked into the operator instance;\n")
			b.WriteString("  // the library's real kernel applies them here.\n")
		default:
			fmt.Fprintf(&b, "  // %s: see the operator library's reference kernel.\n", k)
			b.WriteString("  (void)ins; (void)n_ins; (void)out; (void)rows; (void)cols;\n")
		}
		b.WriteString("}\n\n")
	}
	return b.String()
}
