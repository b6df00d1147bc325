package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) encoder and a conformance
// checker for it: the registry's one exposition format, served on
// /metrics and printed by every -metrics flag. Scraping infrastructure
// expects HELP/TYPE comment lines, [a-zA-Z_:][a-zA-Z0-9_:]* metric names,
// quoted-and-escaped label values, and cumulative histogram buckets;
// ValidatePrometheus parses the output back and checks the format
// invariants, so the serving layer's /metrics endpoint is testable
// without a real Prometheus server.

// promName sanitizes a registry metric name into the Prometheus charset:
// dots (and anything else illegal) become underscores.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelName sanitizes a label name ([a-zA-Z_][a-zA-Z0-9_]*).
func promLabelName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value: backslash, double quote, newline.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promLabels renders {k="v",...} from alternating pairs, with extra
// appended last (the histogram "le" label). Empty input renders "".
func promLabels(labels []string, extra ...string) string {
	all := append(append([]string(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(all); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, promLabelName(all[i]), promEscape(all[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// promValue formats a sample value (Prometheus accepts Go's %g floats).
func promValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promFamily is one metric family being assembled: every instrument that
// shares a sanitized name and kind. Rows are kept as per-series blocks —
// a histogram's bucket ladder must stay in ascending-le order, so blocks
// are sorted (by their first line) but never the lines within one.
type promFamily struct {
	name   string // sanitized
	orig   string // registry name, for the HELP line
	kind   string // counter | gauge | histogram
	blocks [][]string
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format: one HELP and TYPE line per family, samples sorted
// within it, histograms expanded into cumulative _bucket/_sum/_count
// series with an explicit +Inf bucket.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type instRow struct {
		desc metricDesc
		c    *Counter
		g    *Gauge
		h    *Histogram
	}
	rows := make([]instRow, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for k, c := range r.counters {
		rows = append(rows, instRow{desc: r.descs[k], c: c})
	}
	for k, g := range r.gauges {
		rows = append(rows, instRow{desc: r.descs[k], g: g})
	}
	for k, h := range r.hists {
		rows = append(rows, instRow{desc: r.descs[k], h: h})
	}
	r.mu.Unlock()

	fams := map[string]*promFamily{}
	family := func(desc metricDesc, kind string) *promFamily {
		name := promName(desc.name)
		key := kind + " " + name
		f, ok := fams[key]
		if !ok {
			f = &promFamily{name: name, orig: desc.name, kind: kind}
			fams[key] = f
		}
		return f
	}
	for _, row := range rows {
		switch {
		case row.c != nil:
			f := family(row.desc, "counter")
			f.blocks = append(f.blocks, []string{fmt.Sprintf("%s%s %d",
				f.name, promLabels(row.desc.labels), row.c.Value())})
		case row.g != nil:
			f := family(row.desc, "gauge")
			f.blocks = append(f.blocks, []string{fmt.Sprintf("%s%s %s",
				f.name, promLabels(row.desc.labels), promValue(row.g.Value()))})
		case row.h != nil:
			f := family(row.desc, "histogram")
			f.blocks = append(f.blocks, promHistRows(f.name, row.desc.labels, row.h))
		}
	}

	ordered := make([]*promFamily, 0, len(fams))
	for _, f := range fams {
		sort.Slice(f.blocks, func(i, j int) bool { return f.blocks[i][0] < f.blocks[j][0] })
		ordered = append(ordered, f)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].name < ordered[j].name })
	for _, f := range ordered {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, strings.ReplaceAll(f.orig, "\n", `\n`), f.name, f.kind); err != nil {
			return err
		}
		for _, block := range f.blocks {
			for _, row := range block {
				if _, err := fmt.Fprintln(w, row); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// promHistRows expands one sparse power-of-two histogram into cumulative
// Prometheus buckets: the non-positive sentinel bucket becomes le="0",
// exponent e becomes le=2^(e+1), and le="+Inf" carries the total.
func promHistRows(name string, labels []string, h *Histogram) []string {
	h.mu.Lock()
	count, sum := h.count, h.sum
	exps := make([]int, 0, len(h.buckets))
	for e := range h.buckets {
		exps = append(exps, e)
	}
	sort.Ints(exps)
	type bound struct {
		le string
		n  int64
	}
	var bounds []bound
	var cum int64
	for _, e := range exps {
		cum += h.buckets[e]
		le := "0"
		if e != math.MinInt32 {
			le = promValue(math.Pow(2, float64(e+1)))
		}
		bounds = append(bounds, bound{le: le, n: cum})
	}
	h.mu.Unlock()

	rows := make([]string, 0, len(bounds)+3)
	for _, b := range bounds {
		rows = append(rows, fmt.Sprintf("%s_bucket%s %d",
			name, promLabels(labels, "le", b.le), b.n))
	}
	rows = append(rows,
		fmt.Sprintf("%s_bucket%s %d", name, promLabels(labels, "le", "+Inf"), count),
		fmt.Sprintf("%s_sum%s %s", name, promLabels(labels), promValue(sum)),
		fmt.Sprintf("%s_count%s %d", name, promLabels(labels), count),
	)
	return rows
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
