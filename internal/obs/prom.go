package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) encoder: the registry's one
// exposition format, served on /metrics and printed by every -metrics
// flag. Scraping infrastructure expects HELP/TYPE comment lines,
// [a-zA-Z_:][a-zA-Z0-9_:]* metric names, quoted-and-escaped label values,
// and cumulative histogram buckets; the package tests parse the output
// back and check those invariants.

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
