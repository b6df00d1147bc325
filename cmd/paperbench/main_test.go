package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// repoRoot is where the docs, the CI workflow and the committed
// BENCH_*.json live, relative to this package.
const repoRoot = "../.."

func TestCatalogWellFormed(t *testing.T) {
	seen := map[[2]string]bool{}
	for _, x := range catalog {
		key := [2]string{x.flag, x.name}
		if seen[key] {
			t.Errorf("-%s %s is listed twice", x.flag, x.name)
		}
		seen[key] = true
		if !slices.Contains(selectors, x.flag) || x.name == "" {
			t.Errorf("entry %q %q: flag must be one of %v and name non-empty", x.flag, x.name, selectors)
		}
		if x.doc == "" || x.run == nil {
			t.Errorf("-%s %s needs a doc line and a run function", x.flag, x.name)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	pick := func(table, fig, ext string) map[string]string {
		return map[string]string{"table": table, "fig": fig, "ext": ext}
	}
	for _, tc := range []struct {
		name    string
		all     bool
		want    map[string]string
		sel     []string // "-flag name" in run order
		errHas  string   // "" = no error
		errList string   // valid names the error must list
	}{
		{name: "nothing selected", want: pick("", "", "")},
		{name: "one table", want: pick("1", "", ""), sel: []string{"-table 1"}},
		{name: "same name under two flags", want: pick("2", "2", ""), sel: []string{"-table 2", "-fig 2"}},
		{name: "catalog order, not flag order", want: pick("1", "8", "serve"),
			sel: []string{"-table 1", "-fig 8", "-ext serve"}},
		{name: "unknown ext", want: pick("", "", "nope"), errHas: `-ext "nope"`, errList: names("ext")},
		{name: "unknown table", want: pick("3", "", ""), errHas: `-table "3"`, errList: names("table")},
		{name: "unknown fig", want: pick("", "9", ""), errHas: `-fig "9"`, errList: names("fig")},
		{name: "valid name beside a typo runs nothing", want: pick("1", "", "serv"),
			errHas: `-ext "serv"`, errList: names("ext")},
		{name: "typo under -all", all: true, want: pick("", "", "serv"), errHas: `-ext "serv"`, errList: names("ext")},
		{name: "removed extension", want: pick("", "", "obsserve"), errHas: `-ext "obsserve"`, errList: names("ext")},
	} {
		sel, err := selectExperiments(tc.all, tc.want)
		var got []string
		for _, x := range sel {
			got = append(got, "-"+x.flag+" "+x.name)
		}
		if tc.errHas == "" {
			if err != nil || !reflect.DeepEqual(got, tc.sel) {
				t.Errorf("%s: selected %v, err %v; want %v", tc.name, got, err, tc.sel)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.errHas) || !strings.Contains(err.Error(), tc.errList) {
			t.Errorf("%s: err %v; want one naming %s and listing %q", tc.name, err, tc.errHas, tc.errList)
		}
		if len(sel) != 0 {
			t.Errorf("%s: selected %v beside the error; nothing may run", tc.name, got)
		}
	}
	if sel, err := selectExperiments(true, pick("", "", "")); err != nil || len(sel) != len(catalog) {
		t.Errorf("-all selected %d of %d entries, err %v", len(sel), len(catalog), err)
	}
}

// Appending to a log written under an older record shape must leave the
// older records exactly as they were: the bug was a decode into the new
// struct type, which zero-filled new fields into — and dropped unknown
// keys from — every previous record.
func TestAppendBenchoutKeepsOlderRecords(t *testing.T) {
	const old = `[
  {
    "date": "2026-08-06T16:01:41Z",
    "result": {"serial_wall_seconds": 29.25, "modeled_speedup": 2.5102040816326534, "rows": [{"Template": "x"}]}
  }
]
`
	path := filepath.Join(t.TempDir(), "BENCH_old.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := appendBenchout(path, record{Date: "d", Extension: "serve", Seed: 7, GoMaxProcs: 2,
		Result: map[string]int{"jobs": 24}})
	if err != nil || n != 2 {
		t.Fatalf("appendBenchout = %d, %v; want 2, nil", n, err)
	}
	decode := func(data []byte) []map[string]any {
		var recs []map[string]any
		if err := json.Unmarshal(data, &recs); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, after := decode([]byte(old)), decode(data)
	if len(after) != 2 {
		t.Fatalf("log holds %d records, want 2", len(after))
	}
	if !reflect.DeepEqual(after[0], before[0]) {
		t.Errorf("older record rewritten:\n got %v\nwant %v", after[0], before[0])
	}
	if !strings.Contains(string(data), "2.5102040816326534") {
		t.Error("older record's number literal was reformatted")
	}
	want := map[string]any{"date": "d", "extension": "serve", "seed": 7.0, "gomaxprocs": 2.0,
		"result": map[string]any{"jobs": 24.0}}
	if !reflect.DeepEqual(after[1], want) {
		t.Errorf("new record = %v, want %v", after[1], want)
	}

	if err := os.WriteFile(path, []byte(`{"not": "an array"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := appendBenchout(path, record{}); err == nil {
		t.Error("appending to a file that is not a JSON array must fail, not overwrite it")
	}
}

// Every `paperbench -ext X` / `-table N` / `-fig N` quoted in the CI
// workflow, the docs and this command's own package comment names a
// catalog entry, and the package comment lists every entry.
func TestQuotedCommandsNameCatalogEntries(t *testing.T) {
	// The first selector after "paperbench" within one line or code span;
	// the value may wrap onto the next line of a paragraph.
	quoted := regexp.MustCompile("paperbench[^`\n]*?-(ext|table|fig)\\s+(\\w+)")
	for _, file := range []string{".github/workflows/ci.yml", "README.md", "DESIGN.md",
		"EXPERIMENTS.md", "cmd/paperbench/main.go"} {
		data, err := os.ReadFile(filepath.Join(repoRoot, file))
		if err != nil {
			t.Fatal(err)
		}
		matches := quoted.FindAllStringSubmatch(string(data), -1)
		if len(matches) == 0 {
			t.Errorf("%s quotes no paperbench command: has the scan pattern rotted?", file)
		}
		for _, m := range matches {
			if _, err := selectExperiments(false, map[string]string{m[1]: m[2]}); err != nil {
				t.Errorf("%s quotes %q: %v", file, m[0], err)
			}
		}
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	comment, _, _ := strings.Cut(string(src), "\npackage main")
	for _, x := range catalog {
		if cmd := "paperbench -" + x.flag + " " + x.name + " "; !strings.Contains(comment, cmd) {
			t.Errorf("package comment does not list %q", cmd)
		}
	}
}

// Every committed BENCH_*.json is an array of the one -benchout record,
// produced by a catalog extension, and carries no host-time column: those
// are measured by the repo benchmark (bench/) under a protocol. The one
// exception is the sparse kernel's wall_ms, which no benchmark workload
// covers yet.
func TestCommittedBenchFilesUseTheOneRecord(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed BENCH_*.json found (err %v)", err)
	}
	// Lower-case on purpose: gpu.Stats.WallTime in the smoke record is the
	// modeled two-engine makespan, not a host clock.
	hostTime := regexp.MustCompile(`wall|rps|latency_ms|overhead`)
	var walk func(file string, v any)
	walk = func(file string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				if hostTime.MatchString(k) && !(filepath.Base(file) == "BENCH_sparse.json" && k == "wall_ms") {
					t.Errorf("%s: host-time key %q", file, k)
				}
				walk(file, x)
			}
		case []any:
			for _, x := range v {
				walk(file, x)
			}
		}
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var recs []map[string]any
		if err := json.Unmarshal(data, &recs); err != nil || len(recs) == 0 {
			t.Errorf("%s: not a non-empty array of records: %v", file, err)
			continue
		}
		for i, rec := range recs {
			for k := range rec {
				switch k {
				case "date", "extension", "seed", "gomaxprocs", "result":
				default:
					t.Errorf("%s[%d]: key %q is not part of the record", file, i, k)
				}
			}
			_, hasDate := rec["date"].(string)
			_, hasSeed := rec["seed"].(float64)
			ext, _ := rec["extension"].(string)
			if !hasDate || !hasSeed || rec["result"] == nil {
				t.Errorf("%s[%d]: date, seed and result are required", file, i)
			}
			if _, err := selectExperiments(false, map[string]string{"ext": ext}); err != nil || ext == "" {
				t.Errorf("%s[%d]: extension %q is not in the catalog", file, i, ext)
			}
			walk(file, rec["result"])
		}
	}
}
