package gpu

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// EventKind classifies timeline events.
type EventKind int

// Event kinds.
const (
	EventH2D EventKind = iota
	EventD2H
	EventKernel
	EventSync
)

func (k EventKind) String() string {
	switch k {
	case EventH2D:
		return "H2D"
	case EventD2H:
		return "D2H"
	case EventKernel:
		return "KERNEL"
	case EventSync:
		return "SYNC"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one interval on the device timeline.
type Event struct {
	Kind       EventKind
	Label      string
	Start, End float64 // simulated seconds
	Engine     string  // "dma" or "compute"
}

// Trace is the recorded execution timeline of a device. Recording is
// optional (EnableTrace) because large plans produce tens of thousands of
// events. Add is safe to call from concurrent goroutines (the pipelined
// executor records from its DMA and compute workers); read the Events
// field directly only after execution has completed.
type Trace struct {
	Events []Event

	mu sync.Mutex
	// maxEnd caches the largest End seen by Add, making Span O(1); events
	// appended to Events directly (nobody does) would bypass it.
	maxEnd float64
}

// Add appends an event.
func (t *Trace) Add(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Events = append(t.Events, e)
	if e.End > t.maxEnd {
		t.maxEnd = e.End
	}
}

// Span returns the timeline's end time, tracked incrementally by Add.
func (t *Trace) Span() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.maxEnd
}

// BusyTime returns the total busy time of the named engine.
func (t *Trace) BusyTime(engine string) float64 {
	var busy float64
	for _, e := range t.Events {
		if e.Engine == engine {
			busy += e.End - e.Start
		}
	}
	return busy
}

// Gantt renders the trace as an ASCII chart with one row per engine,
// width columns wide. Overlapping events on the same engine merge into a
// solid bar; the chart makes the overlap (or serialization) of the DMA and
// compute engines visible at a glance.
func (t *Trace) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	span := t.Span()
	if span == 0 || len(t.Events) == 0 {
		return "(empty trace)\n"
	}
	engines := []string{"dma", "compute"}
	symbols := map[EventKind]byte{
		EventH2D:    '>',
		EventD2H:    '<',
		EventKernel: '#',
		EventSync:   '|',
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %.6fs total (dma busy %.6fs, compute busy %.6fs)\n",
		span, t.BusyTime("dma"), t.BusyTime("compute"))
	for _, eng := range engines {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range t.Events {
			if e.Engine != eng {
				continue
			}
			s := int(e.Start / span * float64(width))
			f := int(e.End / span * float64(width))
			if f <= s {
				f = s + 1
			}
			if f > width {
				f = width
			}
			for i := s; i < f; i++ {
				row[i] = symbols[e.Kind]
			}
		}
		fmt.Fprintf(&b, "%-8s %s\n", eng, row)
	}
	b.WriteString("         > H2D   < D2H   # kernel   | sync\n")
	return b.String()
}

// Summary returns per-kind totals sorted by kind.
func (t *Trace) Summary() string {
	type agg struct {
		n    int
		busy float64
	}
	m := map[EventKind]*agg{}
	for _, e := range t.Events {
		a := m[e.Kind]
		if a == nil {
			a = &agg{}
			m[e.Kind] = a
		}
		a.n++
		a.busy += e.End - e.Start
	}
	kinds := make([]int, 0, len(m))
	for k := range m {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	var b strings.Builder
	for _, k := range kinds {
		a := m[EventKind(k)]
		fmt.Fprintf(&b, "%-7s %6d events  %.6fs\n", EventKind(k), a.n, a.busy)
	}
	return b.String()
}
