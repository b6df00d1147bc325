package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/gpu"
)

// OverlapRow is one point of the asynchronous-overlap extension
// experiment: the same optimized plan replayed with serialized engines
// (the paper's hardware) versus overlapped DMA/compute (the §3.3.2
// extension, modeled on the Tesla C1060 which supports it).
type OverlapRow struct {
	ImageDim      int
	SyncSeconds   float64
	AsyncSeconds  float64
	Improvement   float64 // sync/async
	TransferShare float64 // of the serialized run
}

// Overlap measures the benefit of overlapping computation and
// communication for the edge-detection template across image sizes. The
// paper notes the change amounts to counting only transfers that block
// the current computation; the ideal makespan is max(DMA busy, compute
// busy) instead of their sum, so the benefit is largest when the two are
// balanced (Fig. 2's mid-sized kernels).
func Overlap(dims []int, spec gpu.Spec) ([]OverlapRow, error) {
	// Deeply split chunk pipelines interleave many allocation sizes;
	// reserve extra fragmentation headroom (the paper's Total_GPU_Memory
	// guidance) so the sweep's largest sizes stay allocatable.
	spec.Headroom = 0.7
	var rows []OverlapRow
	for _, dim := range dims {
		g, _, err := paperEdge(dim).Build()
		if err != nil {
			return nil, err
		}
		// The async run compiles with overlap: the prefetch pass hoists
		// H2D copies as early as memory allows so the DMA engine works
		// ahead of the kernels.
		plain, err := compile(g, spec)
		if err != nil {
			return nil, err
		}
		prefetched, err := compile(g, spec, core.WithOverlap())
		if err != nil {
			return nil, err
		}
		syncRep, err := plain.Simulate(context.Background())
		if err != nil {
			return nil, err
		}
		asyncRep, err := prefetched.Simulate(context.Background())
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverlapRow{
			ImageDim:      dim,
			SyncSeconds:   syncRep.Stats.TotalTime(),
			AsyncSeconds:  asyncRep.Stats.TotalTime(),
			Improvement:   syncRep.Stats.TotalTime() / asyncRep.Stats.TotalTime(),
			TransferShare: syncRep.Stats.TransferShare(),
		})
	}
	return rows, nil
}
