package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// repoRoot is where the docs and the CI workflow live, relative to this
// package.
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

// Every `paperbench` command quoted in the CI workflow, the chaos smoke
// script, the docs, the verify skill and this command's own package
// comment uses only flags paperbench defines, and every -ext X / -table N
// / -fig N it quotes names a catalog entry; the package comment lists
// every entry.
func TestQuotedCommandsNameCatalogEntries(t *testing.T) {
	var c commandLine
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	defineFlags(fs, &c)
	// The flags directly after "paperbench" within one line or code span,
	// each with its value when it has one.
	command := regexp.MustCompile("paperbench((?:[ \t]+-\\w+(?:[ \t]+[^-\\s`|][^\\s`|]*)?)+)")
	// The first selector after "paperbench" within one line or code span;
	// the value may wrap onto the next line of a paragraph.
	selector := regexp.MustCompile("paperbench[^`\n]*?-(ext|table|fig)\\s+(\\w+)")
	flagName := regexp.MustCompile(`(?:^|\s)-(\w+)`)
	for _, file := range []string{".github/workflows/ci.yml", "scripts/chaos-smoke.sh", "README.md", "DESIGN.md",
		"EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "cmd/paperbench/main.go"} {
		data, err := os.ReadFile(filepath.Join(repoRoot, file))
		if err != nil {
			t.Fatal(err)
		}
		text, _, _ := strings.Cut(string(data), "\npackage main")
		commands := command.FindAllStringSubmatch(text, -1)
		if len(commands) == 0 {
			t.Errorf("%s quotes no paperbench command: has the scan pattern rotted?", file)
		}
		for _, m := range commands {
			for _, f := range flagName.FindAllStringSubmatch(m[1], -1) {
				// -h and -help are the flag package's own.
				if fs.Lookup(f[1]) == nil && f[1] != "h" && f[1] != "help" {
					t.Errorf("%s quotes %q: paperbench defines no -%s", file, m[0], f[1])
				}
			}
		}
		for _, m := range selector.FindAllStringSubmatch(text, -1) {
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

// Every template, device and planner quoted in the CI workflow, the
// smoke scripts, the docs, the verify skill and the commands'
// package comments is one the shared parsers accept: -template and
// "template":"…" name a workload.Catalog entry, -device/-devices values
// parse with gpu.ParseSpec, and -planner values with core.ParsePlanner.
func TestQuotedFlagsNameRealEntries(t *testing.T) {
	flagValue := regexp.MustCompile("(?:^|[\\s`(])-(template|devices?|planner)[ \t]+([^\\s`'\"|\\\\)]+)")
	wireTemplate := regexp.MustCompile(`"template":\s*"([^"]*)"`)
	files := []string{".github/workflows/ci.yml", "scripts/served-smoke.sh", "scripts/pipeline-smoke.sh",
		"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
	cmds, err := filepath.Glob(filepath.Join(repoRoot, "cmd", "*", "main.go"))
	if err != nil || len(cmds) == 0 {
		t.Fatalf("no commands found (err %v)", err)
	}
	for _, c := range cmds {
		rel, _ := filepath.Rel(repoRoot, c)
		files = append(files, rel)
	}
	isTemplate := func(name string) bool {
		return slices.ContainsFunc(workload.Catalog, func(e workload.Entry) bool { return e.Name == name })
	}
	quotes := 0
	for _, file := range files {
		data, err := os.ReadFile(filepath.Join(repoRoot, file))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		if strings.HasPrefix(file, "cmd") {
			text, _, _ = strings.Cut(text, "\npackage main")
		}
		for _, m := range wireTemplate.FindAllStringSubmatch(text, -1) {
			quotes++
			if !isTemplate(m[1]) {
				t.Errorf("%s quotes %s: not a catalog template (%s)", file, m[0], workload.Names())
			}
		}
		for _, m := range flagValue.FindAllStringSubmatch(text, -1) {
			quotes++
			value := strings.TrimRight(m[2], ".,;:")
			switch m[1] {
			case "template":
				if !isTemplate(value) {
					t.Errorf("%s quotes -template %s: not a catalog template (%s)", file, value, workload.Names())
				}
			case "device", "devices":
				for _, d := range strings.Split(value, ",") {
					if _, err := gpu.ParseSpec(d); err != nil {
						t.Errorf("%s quotes -%s %s: %v", file, m[1], value, err)
					}
				}
			case "planner":
				if _, err := core.ParsePlanner(value); err != nil {
					t.Errorf("%s quotes -planner %s: %v", file, value, err)
				}
			}
		}
	}
	if quotes == 0 {
		t.Error("no quoted template, device or planner found: has the scan pattern rotted?")
	}
}
