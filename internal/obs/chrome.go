package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event exporter. The emitted JSON opens in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Layout:
//
//   pid 1 "compile (wall clock)"     — tid 1 "pipeline": nested compile-phase
//                                      spans (split, scheduling, PB, verify)
//   pid 2 "device (simulated clock)" — one tid per engine track: "dma",
//                                      "compute", then "recovery" and any
//                                      other tracks in sorted order; spans
//                                      are transfers/kernels/syncs, instants
//                                      are recovery actions.
//
// Timestamps are microseconds: wall spans since the tracer epoch,
// simulated spans on the device clock. The two never share a process, so
// the clock mismatch is harmless.

const (
	compilePID = 1
	devicePID  = 2
)

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Ph    string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   *float64          `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// simTIDs assigns deterministic thread IDs to simulated-clock tracks: the
// engine tracks first, then everything else sorted.
func simTIDs(tracks map[string]bool) map[string]int {
	tids := map[string]int{}
	next := 1
	for _, known := range []string{"dma", "compute", RecoveryTrack} {
		if tracks[known] {
			tids[known] = next
			next++
		}
	}
	var rest []string
	for tr := range tracks {
		if _, ok := tids[tr]; !ok {
			rest = append(rest, tr)
		}
	}
	sort.Strings(rest)
	for _, tr := range rest {
		tids[tr] = next
		next++
	}
	return tids
}

// WriteChrome encodes the tracer's spans and instants as Chrome
// trace_event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	instants := t.Instants()

	tracks := map[string]bool{}
	wallExtra := map[string]bool{}
	for _, s := range spans {
		if s.Domain == Sim {
			tracks[s.Track] = true
		} else if s.Track != "" && s.Track != WallTrack {
			wallExtra[s.Track] = true
		}
	}
	for _, i := range instants {
		if i.Domain == Sim {
			tracks[i.Track] = true
		}
	}
	tids := simTIDs(tracks)
	// Wall-clock tracks: the nested compile pipeline is tid 1; any extra
	// wall tracks (the pipelined executor's engine lanes, recorded with
	// AddWall) get their own rows in sorted order.
	wallTIDs := map[string]int{WallTrack: 1}
	extra := make([]string, 0, len(wallExtra))
	for tr := range wallExtra {
		extra = append(extra, tr)
	}
	sort.Strings(extra)
	for i, tr := range extra {
		wallTIDs[tr] = 2 + i
	}

	var evs []chromeEvent
	meta := func(pid int, name string) {
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]string{"name": name},
		})
	}
	thread := func(pid, tid int, name string) {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]string{"name": name},
		})
	}
	meta(compilePID, "compile (wall clock)")
	thread(compilePID, 1, WallTrack)
	for _, tr := range extra {
		thread(compilePID, wallTIDs[tr], tr)
	}
	if len(tids) > 0 {
		meta(devicePID, "device (simulated clock)")
		ordered := make([]string, 0, len(tids))
		for tr := range tids {
			ordered = append(ordered, tr)
		}
		sort.Slice(ordered, func(i, j int) bool { return tids[ordered[i]] < tids[ordered[j]] })
		for _, tr := range ordered {
			thread(devicePID, tids[tr], tr)
		}
	}

	for _, s := range spans {
		dur := (s.End - s.Start) * 1e6
		if dur < 0 {
			dur = 0
		}
		d := dur
		ev := chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", TS: s.Start * 1e6, Dur: &d,
			Args: s.Args,
		}
		if s.Domain == Wall {
			tid, ok := wallTIDs[s.Track]
			if !ok {
				tid = 1
			}
			ev.PID, ev.TID = compilePID, tid
		} else {
			ev.PID, ev.TID = devicePID, tids[s.Track]
		}
		evs = append(evs, ev)
	}
	for _, in := range instants {
		ev := chromeEvent{
			Name: in.Name, Cat: in.Cat, Ph: "i", TS: in.TS * 1e6, Scope: "t",
			Args: in.Args,
		}
		if in.Domain == Wall {
			ev.PID, ev.TID = compilePID, 1
		} else {
			ev.PID, ev.TID = devicePID, tids[in.Track]
		}
		evs = append(evs, ev)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// TraceCheck summarizes a validated Chrome trace file.
type TraceCheck struct {
	Events    int // total entries in traceEvents
	Spans     int // ph "X"
	Instants  int // ph "i"
	Meta      int // ph "M"
	SimSpans  int // spans in the device (simulated clock) process
	WallSpans int // spans in the compile (wall clock) process
	Tracks    []string
}

func (c TraceCheck) String() string {
	return fmt.Sprintf("%d events: %d spans (%d compile, %d device), %d instants, %d metadata; tracks %v",
		c.Events, c.Spans, c.WallSpans, c.SimSpans, c.Instants, c.Meta, c.Tracks)
}

// ValidateChrome parses data as Chrome trace_event JSON and checks the
// invariants the exporter guarantees: every span has a non-empty name, a
// non-negative timestamp and duration (no interval ends before it
// starts), and instants carry timestamps. Returns a summary on success.
func ValidateChrome(data []byte) (TraceCheck, error) {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return TraceCheck{}, fmt.Errorf("obs: not valid trace JSON: %w", err)
	}
	c := TraceCheck{Events: len(f.TraceEvents)}
	if len(f.TraceEvents) == 0 {
		return c, fmt.Errorf("obs: trace has no events")
	}
	threadNames := map[[2]int]string{}
	for _, e := range f.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			threadNames[[2]int{e.PID, e.TID}] = e.Args["name"]
		}
	}
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			c.Meta++
		case "X":
			c.Spans++
			if e.Name == "" {
				return c, fmt.Errorf("obs: event %d: span with empty name", i)
			}
			if e.TS < 0 {
				return c, fmt.Errorf("obs: event %d (%s): negative timestamp %g", i, e.Name, e.TS)
			}
			if e.Dur == nil {
				return c, fmt.Errorf("obs: event %d (%s): span without duration", i, e.Name)
			}
			if *e.Dur < 0 {
				return c, fmt.Errorf("obs: event %d (%s): End < Start (dur %g)", i, e.Name, *e.Dur)
			}
			if e.PID == devicePID {
				c.SimSpans++
			} else {
				c.WallSpans++
			}
		case "i", "I":
			c.Instants++
			if e.TS < 0 {
				return c, fmt.Errorf("obs: event %d (%s): negative instant timestamp", i, e.Name)
			}
		default:
			return c, fmt.Errorf("obs: event %d: unsupported phase %q", i, e.Ph)
		}
	}
	if c.Spans == 0 {
		return c, fmt.Errorf("obs: trace has no spans")
	}
	var tracks []string
	for _, name := range threadNames {
		tracks = append(tracks, name)
	}
	sort.Strings(tracks)
	c.Tracks = tracks
	return c, nil
}
