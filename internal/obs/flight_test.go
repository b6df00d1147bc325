package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestFlightRecorderRingWrap(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record("event", map[string]string{"i": fmt.Sprint(i)})
	}
	s := f.Snapshot()
	if s.Capacity != 4 || s.Recorded != 10 || s.Dropped != 6 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(s.Events))
	}
	// Survivors are the newest four, in sequence order.
	for i, ev := range s.Events {
		if want := int64(6 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
		if ev.Detail["i"] != fmt.Sprint(6+i) {
			t.Fatalf("event %d detail = %v", i, ev.Detail)
		}
		if ev.AtSec < 0 {
			t.Fatalf("event %d negative timestamp", i)
		}
	}
}

func TestFlightRecorderUnderCapacity(t *testing.T) {
	f := NewFlightRecorder(DefaultFlightCapacity)
	f.Record("a", nil)
	f.Record("b", map[string]string{"k": "v"})
	s := f.Snapshot()
	if s.Capacity != DefaultFlightCapacity || s.Recorded != 2 || s.Dropped != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.Events) != 2 || s.Events[0].Kind != "a" || s.Events[1].Detail["k"] != "v" {
		t.Fatalf("events = %+v", s.Events)
	}
}

func TestFlightRecorderWriteJSON(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record("health", map[string]string{"device": "Tesla C870", "to": "quarantined"})
	var b strings.Builder
	if err := f.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var s FlightSnapshot
	if err := json.Unmarshal([]byte(b.String()), &s); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(s.Events) != 1 || s.Events[0].Detail["device"] != "Tesla C870" {
		t.Fatalf("round-trip events = %+v", s.Events)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record("x", nil)
	if s := f.Snapshot(); s.Capacity != 0 || s.Events != nil {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if err := f.WriteJSON(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}
