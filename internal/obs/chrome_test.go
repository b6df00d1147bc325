package obs

import (
	"strings"
	"testing"
)

func TestWriteChromeValidates(t *testing.T) {
	tr := NewTracer()
	sp := tr.Begin("compile", "compile")
	tr.Begin("split", "compile").SetArg("parts", "2").End()
	sp.End()
	tr.AddSim("dma", "H2D Im", "H2D", 0, 1)
	tr.AddSim("compute", "conv", "KERNEL", 1, 3)
	tr.MarkSim(RecoveryTrack, "retry", "recovery", 2, map[string]string{"attempt": "1"})

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	c, err := ValidateChrome([]byte(b.String()))
	if err != nil {
		t.Fatalf("exporter output failed validation: %v\n%s", err, b.String())
	}
	if c.WallSpans != 2 || c.SimSpans != 2 || c.Instants != 1 {
		t.Fatalf("check = %+v", c)
	}
	want := []string{"compute", "dma", "pipeline", "recovery"}
	if len(c.Tracks) != len(want) {
		t.Fatalf("tracks = %v, want %v", c.Tracks, want)
	}
	for i, tr := range want {
		if c.Tracks[i] != tr {
			t.Fatalf("tracks = %v, want %v", c.Tracks, want)
		}
	}
}

func TestValidateChromeRejectsBadTraces(t *testing.T) {
	cases := map[string]string{
		"not JSON":      `{"traceEvents": [`,
		"no events":     `{"traceEvents": []}`,
		"empty name":    `{"traceEvents": [{"name":"","ph":"X","ts":0,"dur":1,"pid":2,"tid":1}]}`,
		"negative ts":   `{"traceEvents": [{"name":"a","ph":"X","ts":-5,"dur":1,"pid":2,"tid":1}]}`,
		"end < start":   `{"traceEvents": [{"name":"a","ph":"X","ts":5,"dur":-1,"pid":2,"tid":1}]}`,
		"no duration":   `{"traceEvents": [{"name":"a","ph":"X","ts":5,"pid":2,"tid":1}]}`,
		"bad phase":     `{"traceEvents": [{"name":"a","ph":"Q","ts":0,"pid":1,"tid":1}]}`,
		"only metadata": `{"traceEvents": [{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0}]}`,
		"negative inst": `{"traceEvents": [{"name":"a","ph":"X","ts":0,"dur":1,"pid":2,"tid":1},{"name":"r","ph":"i","ts":-1,"pid":2,"tid":1}]}`,
	}
	for name, data := range cases {
		if _, err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}
