package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// A registry with every instrument kind, awkward names, and labels that
// need escaping must render a conformant exposition document.
func TestWritePrometheusConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.submitted").Add(3)
	r.Counter("serve.completed", "device", "GeForce 8800 GTX").Add(2)
	r.Counter("serve.completed", "device", `odd"quote\and
newline`).Inc()
	r.Gauge("serve.health.state", "device", "Tesla C870").Set(2)
	h := r.Histogram("serve.queue.wait_seconds")
	for _, v := range []float64{0.0001, 0.003, 0.003, 1.5, 40, -1} {
		h.Observe(v)
	}
	// A labelled histogram with two series, as serve emits per device.
	r.Histogram("serve.exec.seconds", "device", "Tesla C870").Observe(0.5)
	r.Histogram("serve.exec.seconds", "device", "GeForce 8800 GTX").Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	check, err := ValidatePrometheus([]byte(out))
	if err != nil {
		t.Fatalf("exposition not conformant: %v\n%s", err, out)
	}
	if check.Families != 5 || check.Histograms != 2 {
		t.Fatalf("check = %+v, want 5 families / 2 histograms\n%s", check, out)
	}

	for _, want := range []string{
		"# TYPE serve_submitted counter",
		"# HELP serve_submitted serve.submitted",
		"serve_submitted 3",
		`serve_completed{device="GeForce 8800 GTX"} 2`,
		`serve_completed{device="odd\"quote\\and\nnewline"} 1`,
		"# TYPE serve_queue_wait_seconds histogram",
		`serve_queue_wait_seconds_bucket{le="+Inf"} 6`,
		"serve_queue_wait_seconds_count 6",
		`serve_queue_wait_seconds_bucket{le="0"} 1`, // the non-positive sentinel
		`serve_exec_seconds_bucket{device="Tesla C870",le="+Inf"} 1`,
		`serve_exec_seconds_count{device="GeForce 8800 GTX"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "serve.") {
		// Dots are only legal inside HELP text, never in sample names.
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "#") && strings.Contains(line, "serve.") {
				t.Fatalf("sample line with unsanitized name: %q", line)
			}
		}
	}
}

// Histogram buckets must be cumulative and ascending per series even
// when several label sets share one family.
func TestWritePrometheusHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	ha := r.Histogram("lat", "device", "a")
	hb := r.Histogram("lat", "device", "b")
	for _, v := range []float64{0.5, 1.5, 3, 3, 10} {
		ha.Observe(v)
	}
	hb.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePrometheus([]byte(b.String())); err != nil {
		t.Fatalf("multi-series histogram not conformant: %v\n%s", err, b.String())
	}
}

func TestValidatePrometheusRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"no families":       "\n",
		"sample sans TYPE":  "foo 1\n",
		"bad name":          "# TYPE 9bad counter\n9bad 1\n",
		"unquoted label":    "# TYPE a counter\na{k=v} 1\n",
		"bad escape":        "# TYPE a counter\na{k=\"\\x\"} 1\n",
		"bad value":         "# TYPE a counter\na zzz\n",
		"type after sample": "# TYPE a counter\na 1\n# TYPE a gauge\n",
		"no inf bucket":     "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n",
		"not cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
	}
	for name, doc := range cases {
		if _, err := ValidatePrometheus([]byte(doc)); err == nil {
			t.Errorf("%s: validated bad document:\n%s", name, doc)
		}
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry: err=%v out=%q", err, b.String())
	}
}

// PromCheck summarizes a validated exposition document.
type PromCheck struct {
	Families   int // TYPE lines
	Samples    int // non-comment sample lines
	Histograms int // families typed histogram
}

func (c PromCheck) String() string {
	return fmt.Sprintf("%d families (%d histograms), %d samples",
		c.Families, c.Histograms, c.Samples)
}

// promBase strips the histogram series suffixes from a sample name.
func promBase(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// validPromName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || r == ':':
		case r >= 'a' && r <= 'z':
		case r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parsePromSample splits `name{k="v",...} value` (labels optional) and
// validates names, label syntax, escaping, and the float value. It
// returns the metric name and the le label (empty when absent).
func parsePromSample(line string) (name, le string, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("no value separator")
	}
	name = rest[:i]
	if !validPromName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			if rest == "" {
				return "", "", fmt.Errorf("unterminated label set")
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return "", "", fmt.Errorf("label without '='")
			}
			lname := rest[:eq]
			if !validPromName(lname) || strings.Contains(lname, ":") {
				return "", "", fmt.Errorf("invalid label name %q", lname)
			}
			rest = rest[eq+1:]
			if rest == "" || rest[0] != '"' {
				return "", "", fmt.Errorf("label %s: unquoted value", lname)
			}
			rest = rest[1:]
			var val strings.Builder
			for {
				if rest == "" {
					return "", "", fmt.Errorf("label %s: unterminated value", lname)
				}
				c := rest[0]
				if c == '\\' {
					if len(rest) < 2 || !strings.ContainsRune(`\"n`, rune(rest[1])) {
						return "", "", fmt.Errorf("label %s: bad escape", lname)
					}
					val.WriteByte(rest[1])
					rest = rest[2:]
					continue
				}
				if c == '\n' {
					return "", "", fmt.Errorf("label %s: raw newline in value", lname)
				}
				if c == '"' {
					rest = rest[1:]
					break
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			if lname == "le" {
				le = val.String()
			}
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return "", "", fmt.Errorf("missing value")
	}
	valTok := strings.Fields(rest)[0]
	if valTok != "+Inf" && valTok != "-Inf" && valTok != "NaN" {
		if _, err := strconv.ParseFloat(valTok, 64); err != nil {
			return "", "", fmt.Errorf("bad value %q", valTok)
		}
	}
	return name, le, nil
}

// ValidatePrometheus parses data as Prometheus text exposition format
// and checks conformance: sample and label syntax, a TYPE line for every
// family appearing before its samples, at most one TYPE per family, and
// for histogram families cumulative non-decreasing buckets ending in an
// explicit le="+Inf" bucket. Returns a summary on success.
func ValidatePrometheus(data []byte) (PromCheck, error) {
	var c PromCheck
	types := map[string]string{}
	seenSample := map[string]bool{}
	type histState struct {
		lastLE  float64
		lastN   float64
		haveInf bool
		buckets int
	}
	hists := map[string]*histState{}

	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return c, fmt.Errorf("obs: line %d: comment is neither HELP nor TYPE: %q", lineNo, line)
			}
			name := fields[2]
			if !validPromName(name) {
				return c, fmt.Errorf("obs: line %d: invalid family name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return c, fmt.Errorf("obs: line %d: TYPE wants exactly one kind", lineNo)
				}
				kind := fields[3]
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return c, fmt.Errorf("obs: line %d: unknown type %q", lineNo, kind)
				}
				if _, dup := types[name]; dup {
					return c, fmt.Errorf("obs: line %d: duplicate TYPE for %s", lineNo, name)
				}
				if seenSample[name] {
					return c, fmt.Errorf("obs: line %d: TYPE for %s after its samples", lineNo, name)
				}
				types[name] = kind
				c.Families++
				if kind == "histogram" {
					c.Histograms++
					hists[name] = &histState{lastLE: math.Inf(-1)}
				}
			}
			continue
		}

		name, le, err := parsePromSample(line)
		if err != nil {
			return c, fmt.Errorf("obs: line %d: %v (%q)", lineNo, err, line)
		}
		c.Samples++
		base := promBase(name)
		fam := name
		if _, ok := types[base]; ok && base != name {
			fam = base
		}
		kind, ok := types[fam]
		if !ok {
			return c, fmt.Errorf("obs: line %d: sample %s has no TYPE line", lineNo, name)
		}
		seenSample[fam] = true
		if kind == "histogram" && strings.HasSuffix(name, "_bucket") {
			h := hists[fam]
			if le == "" {
				return c, fmt.Errorf("obs: line %d: histogram bucket without le label", lineNo)
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return c, fmt.Errorf("obs: line %d: bad le %q", lineNo, le)
				}
			} else {
				h.haveInf = true
			}
			val, _ := strconv.ParseFloat(strings.Fields(line)[len(strings.Fields(line))-1], 64)
			// Buckets for one series arrive together and ascending; a new
			// series (different labels) restarts the ladder at a smaller le.
			if bound < h.lastLE || (bound == h.lastLE && le != "+Inf") {
				h.lastLE, h.lastN = math.Inf(-1), 0
			}
			if bound >= h.lastLE && val < h.lastN {
				return c, fmt.Errorf("obs: line %d: histogram %s bucket le=%s count %g < previous %g (not cumulative)",
					lineNo, fam, le, val, h.lastN)
			}
			h.lastLE, h.lastN = bound, val
			h.buckets++
		}
	}
	for name, h := range hists {
		if h.buckets > 0 && !h.haveInf {
			return c, fmt.Errorf("obs: histogram %s has buckets but no le=\"+Inf\"", name)
		}
	}
	if c.Families == 0 {
		return c, fmt.Errorf("obs: document has no metric families")
	}
	return c, nil
}
