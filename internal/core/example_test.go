package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/templates"
)

// Compile the paper's 10000×10000 edge-detection template for the Tesla
// C870: the framework splits the combine operator and schedules transfers
// automatically, landing on exactly the paper's Table 1 volume.
func Example() {
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 10000, ImageW: 10000, KernelSize: 16, Orientations: 4,
	})
	if err != nil {
		panic(err)
	}
	svc := core.NewService(core.WithDevice(gpu.TeslaC870()))
	compiled, _, err := svc.Compile(context.Background(), g)
	if err != nil {
		panic(err)
	}
	fmt.Println("operators split:", compiled.Split.SplitNodes)
	fmt.Println("floats transferred:", compiled.Plan.TotalTransferFloats())
	// Output:
	// operators split: 1
	// floats transferred: 400000512
}

// The same template compiled for the smaller GeForce 8800 GTX splits more
// operators — and the chunk-aligned split transfers even less.
func Example_retargeting() {
	g, _, err := templates.EdgeDetect(templates.EdgeConfig{
		ImageH: 10000, ImageW: 10000, KernelSize: 16, Orientations: 4,
	})
	if err != nil {
		panic(err)
	}
	svc := core.NewService(core.WithDevice(gpu.GeForce8800GTX()))
	compiled, _, err := svc.Compile(context.Background(), g)
	if err != nil {
		panic(err)
	}
	fmt.Println("operators after split:", len(compiled.Graph.Nodes))
	fmt.Println("floats transferred:", compiled.Plan.TotalTransferFloats())
	// Output:
	// operators after split: 15
	// floats transferred: 200300512
}
