package gpu

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpecs(t *testing.T) {
	c := TeslaC870()
	g := GeForce8800GTX()
	if c.MemoryBytes != 1536<<20 {
		t.Fatalf("C870 memory = %d", c.MemoryBytes)
	}
	if g.MemoryBytes != 768<<20 {
		t.Fatalf("8800 memory = %d", g.MemoryBytes)
	}
	if c.Cores != g.Cores || c.ClockGHz != g.ClockGHz {
		t.Fatal("paper: the two GPUs differ only in memory")
	}
	// Planner capacity reserves headroom and is measured in floats.
	if got := c.PlannerCapacity(); got >= c.MemoryBytes/4 || got < c.MemoryBytes/8 {
		t.Fatalf("planner capacity = %d floats", got)
	}
	if Custom("x", 100).MemoryBytes != 100 {
		t.Fatal("Custom memory wrong")
	}
	if c.String() == "" {
		t.Fatal("String empty")
	}
}

// ParseSpec is the one device grammar of every command: each named card,
// the mem=<bytes> custom form, and an error for anything else.
func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Spec
	}{
		{"c870", TeslaC870()},
		{"8800", GeForce8800GTX()},
		{"c1060", TeslaC1060()},
		{"mem=2097152", Custom("mem=2097152", 2097152)},
		{"mem=1", Custom("mem=1", 1)},
	} {
		got, err := ParseSpec(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
		// A custom card's name parses back to the same card.
		if again, err := ParseSpec(got.Name); err == nil && again != got {
			t.Errorf("ParseSpec(%q) does not round-trip through its name %q", tc.in, got.Name)
		}
	}
	for _, in := range []string{"c1061", "mem=0", "mem=-1", "", "mem=", "mem=2MB", "C870", " c870"} {
		if got, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want an error", in, got)
		}
	}
}

func TestAllocatorBasic(t *testing.T) {
	a := NewAllocator(100)
	o1, err := a.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := a.Alloc(60)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 {
		t.Fatal("overlapping allocations")
	}
	if a.FreeBytes() != 0 || a.UsedBytes() != 100 {
		t.Fatalf("free=%d used=%d", a.FreeBytes(), a.UsedBytes())
	}
	if _, err := a.Alloc(1); err == nil {
		t.Fatal("full allocator must fail")
	}
	if err := a.Free(o1); err != nil {
		t.Fatal(err)
	}
	if a.FreeBytes() != 40 {
		t.Fatalf("free=%d", a.FreeBytes())
	}
	if err := a.Free(o1); err == nil {
		t.Fatal("double free must fail")
	}
}

func TestAllocatorFragmentation(t *testing.T) {
	a := NewAllocator(100)
	var offs []int64
	for i := 0; i < 10; i++ {
		o, err := a.Alloc(10)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, o)
	}
	// Free every other block: 50 bytes free but largest span is 10.
	for i := 0; i < 10; i += 2 {
		if err := a.Free(offs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeBytes() != 50 {
		t.Fatalf("free=%d", a.FreeBytes())
	}
	if _, err := a.Alloc(11); !errors.Is(err, ErrOOM) {
		t.Fatalf("fragmented allocator (largest span 10) must fail an 11-byte request with ErrOOM: %v", err)
	}
	// Freeing the rest must coalesce back to one span.
	for i := 1; i < 10; i += 2 {
		if err := a.Free(offs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeSpans() != 1 || a.FreeBytes() != 100 {
		t.Fatalf("spans=%d free=%d", a.FreeSpans(), a.FreeBytes())
	}
}

func TestAllocatorInvalidSize(t *testing.T) {
	a := NewAllocator(10)
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("zero alloc must fail")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Fatal("negative alloc must fail")
	}
}

// Property: after any sequence of allocs and frees, used+free == size and
// no two live allocations overlap.
func TestAllocatorInvariantProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		a := NewAllocator(1 << 12)
		type live struct{ off, n int64 }
		var lives []live
		for i, s := range sizes {
			n := int64(s%64) + 1
			if i%3 == 2 && len(lives) > 0 {
				// free the oldest
				if err := a.Free(lives[0].off); err != nil {
					return false
				}
				lives = lives[1:]
				continue
			}
			off, err := a.Alloc(n)
			if err != nil {
				continue // OOM is fine
			}
			for _, l := range lives {
				if off < l.off+l.n && l.off < off+n {
					return false // overlap
				}
			}
			lives = append(lives, live{off, n})
		}
		var used int64
		for _, l := range lives {
			used += l.n
		}
		return a.UsedBytes() == used && a.FreeBytes() == 1<<12-used
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceClockAndStats(t *testing.T) {
	d := New(TeslaC870())
	d.CopyToDevice(1 << 20) // 4 MiB
	st := d.Stats()
	if st.H2DFloats != 1<<20 || st.H2DCalls != 1 {
		t.Fatalf("stats = %+v", st)
	}
	wantT := d.Spec.TransferLatency + float64(4<<20)/d.Spec.H2DBandwidth
	if diff := st.TransferTime - wantT; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("transfer time %v, want %v", st.TransferTime, wantT)
	}
	d.Launch(1e9, 1e6, 8e6)
	st = d.Stats()
	if st.KernelLaunches != 1 || st.ComputeTime <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalFloats() != 1<<20 {
		t.Fatalf("total floats = %d", st.TotalFloats())
	}
	if d.Clock() != st.TotalTime() {
		t.Fatal("clock must equal total time")
	}
	share := st.TransferShare()
	if share <= 0 || share >= 1 {
		t.Fatalf("share = %v", share)
	}
}

func TestKernelTimeBounds(t *testing.T) {
	d := New(TeslaC870())
	// Arithmetic-bound: enormous FLOPs.
	ta := d.KernelTime(1e12, 1, 1)
	if want := 1e12 / d.Spec.GFLOPS; ta < want {
		t.Fatalf("arith bound not respected: %v < %v", ta, want)
	}
	// Issue-bound: many elements, no flops.
	ti := d.KernelTime(0, 1e9, 1)
	if ti <= d.Spec.LaunchOverhead {
		t.Fatal("issue floor missing")
	}
	// Memory-bound: many bytes.
	tm := d.KernelTime(0, 1, 1e12)
	if want := 1e12 / d.Spec.DeviceBandwidth; tm < want {
		t.Fatalf("memory bound not respected: %v < %v", tm, want)
	}
	// Small-kernel conv is slower per FLOP than large-kernel conv
	// (Fig. 2's premise): time per FLOP at k=2 exceeds k=20.
	n := int64(8000 * 8000)
	t2 := d.KernelTime(n*2*2*2, n, n*8)
	t20 := d.KernelTime(n*20*20*2, n, n*8)
	if t2/float64(n*2*2*2) <= t20/float64(n*20*20*2) {
		t.Fatal("per-FLOP cost should fall with kernel size")
	}
}

func TestDeviceMalloc(t *testing.T) {
	d := New(Custom("tiny", 64))
	off, err := d.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc(1); err == nil {
		t.Fatal("OOM expected")
	}
	if err := d.FreeMem(off); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc(64); err != nil {
		t.Fatal(err)
	}
}

func TestTeslaC1060Spec(t *testing.T) {
	c := TeslaC1060()
	if !c.AsyncTransfer {
		t.Fatal("C1060 must support async transfer")
	}
	if c.MemoryBytes != 4096<<20 || c.Cores != 240 {
		t.Fatalf("C1060 = %+v", c)
	}
	if TeslaC870().AsyncTransfer || GeForce8800GTX().AsyncTransfer {
		t.Fatal("the paper's GPUs must not support async transfer (§3.3.2)")
	}
	if TeslaC870().HostMemoryBytes != 8<<30 {
		t.Fatal("paper systems have 8 GB of host memory")
	}
}

func TestSyncAndWallTime(t *testing.T) {
	d := New(TeslaC870())
	d.AccountSync()
	d.AccountSync()
	st := d.Stats()
	if st.Syncs != 2 || st.SyncTime != 2*d.Spec.SyncOverhead {
		t.Fatalf("sync stats = %+v", st)
	}
	if st.TotalTime() != st.SyncTime {
		t.Fatal("TotalTime must include sync time")
	}
	d.SetWallTime(1.5)
	if d.Stats().TotalTime() != 1.5 || d.Clock() != 1.5 {
		t.Fatal("wall time override broken")
	}
}

func TestTransferDurations(t *testing.T) {
	d := New(TeslaC870())
	h := d.H2DDuration(1 << 20)
	if want := d.Spec.TransferLatency + float64(4<<20)/d.Spec.H2DBandwidth; h != want {
		t.Fatalf("H2D duration %v, want %v", h, want)
	}
	if d.D2HDuration(1<<20) <= d.Spec.TransferLatency {
		t.Fatal("D2H duration missing bandwidth term")
	}
	// Durations match what CopyToDevice accounts.
	d.CopyToDevice(1 << 20)
	if d.Stats().TransferTime != h {
		t.Fatal("CopyToDevice inconsistent with H2DDuration")
	}
}

func TestTraceGanttAndSummary(t *testing.T) {
	tr := &Trace{}
	tr.Add(Event{Kind: EventH2D, Label: "a", Engine: "dma", Start: 0, End: 1})
	tr.Add(Event{Kind: EventKernel, Label: "k", Engine: "compute", Start: 1, End: 3})
	tr.Add(Event{Kind: EventD2H, Label: "a", Engine: "dma", Start: 3, End: 4})
	tr.Add(Event{Kind: EventSync, Engine: "compute", Start: 4, End: 4.1})
	if tr.Span() != 4.1 {
		t.Fatalf("span = %v", tr.Span())
	}
	if tr.BusyTime("dma") != 2 {
		t.Fatalf("dma busy = %v", tr.BusyTime("dma"))
	}
	g := tr.Gantt(40)
	for _, want := range []string{"dma", "compute", ">", "#", "<", "timeline"} {
		if !strings.Contains(g, want) {
			t.Fatalf("gantt missing %q:\n%s", want, g)
		}
	}
	s := tr.Summary()
	for _, want := range []string{"H2D", "D2H", "KERNEL", "SYNC"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	empty := (&Trace{}).Gantt(40)
	if !strings.Contains(empty, "empty") {
		t.Fatal("empty trace should say so")
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{EventH2D, EventD2H, EventKernel, EventSync} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	if EventKind(99).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

func TestAllocatorCompact(t *testing.T) {
	a := NewAllocator(100)
	var offs []int64
	for i := 0; i < 10; i++ {
		o, err := a.Alloc(10)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, o)
	}
	// Free every other block: 50 bytes free, largest span 10 — then
	// compaction must yield one 50-byte tail span and report the moves.
	for i := 0; i < 10; i += 2 {
		if err := a.Free(offs[i]); err != nil {
			t.Fatal(err)
		}
	}
	moves := a.Compact()
	if len(moves) != 5 {
		t.Fatalf("moves=%d, want 5 (every surviving block slides down)", len(moves))
	}
	var moved int64
	next := int64(0)
	for _, m := range moves {
		if m.New >= m.Old {
			t.Errorf("move %+v does not slide down", m)
		}
		if m.New != next {
			t.Errorf("move %+v not packed at %d", m, next)
		}
		next += m.Len
		moved += m.Len
	}
	if moved != 50 {
		t.Fatalf("moved %d bytes, want 50", moved)
	}
	if a.FreeSpans() != 1 || a.FreeBytes() != 50 || a.UsedBytes() != 50 {
		t.Fatalf("after compact: spans=%d free=%d used=%d", a.FreeSpans(), a.FreeBytes(), a.UsedBytes())
	}
	if _, err := a.Alloc(50); err != nil {
		t.Fatalf("post-compact 50-byte alloc failed: %v", err)
	}
}

func TestDeviceCompactCharges(t *testing.T) {
	d := New(Custom("c", 100))
	o1, _ := d.Malloc(10)
	if _, err := d.Malloc(10); err != nil {
		t.Fatal(err)
	}
	if err := d.FreeMem(o1); err != nil {
		t.Fatal(err)
	}
	moves := d.Compact()
	if len(moves) != 1 {
		t.Fatalf("moves=%d, want 1", len(moves))
	}
	st := d.Stats()
	if st.Compactions != 1 || st.CompactedFloats != 10/4 {
		t.Fatalf("stats=%+v", st)
	}
	if st.CompactTime <= 0 || d.Clock() != st.CompactTime {
		t.Fatalf("compact time %g not charged to clock %g", st.CompactTime, d.Clock())
	}
	if st.TotalTime() != st.CompactTime {
		t.Fatalf("TotalTime %g must include CompactTime %g", st.TotalTime(), st.CompactTime)
	}
}
