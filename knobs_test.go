package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// knobPackages names the option types whose constructors must each have
// a caller: an import path, the directory that defines it, and the
// option type its constructors return.
var knobPackages = []struct{ path, dir, option string }{
	{"repro/internal/core", "internal/core", "Option"},
	{"repro/internal/serve", "internal/serve", "PoolOption"},
}

// TestEveryOptionHasACaller is the knob-rot guard: every exported
// constructor of core.Option or serve.PoolOption must be called from a
// non-test file outside its own package (cmd/, internal/, examples/ or
// bench/). An option only tests set is a setting with one value in use,
// which belongs in a constant.
func TestEveryOptionHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	sources := func(root string) []string {
		var files []string
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}

	// constructors[import path][func name] counts the calls found.
	constructors := map[string]map[string]int{}
	for _, kp := range knobPackages {
		constructors[kp.path] = map[string]int{}
		for _, path := range sources(kp.dir) {
			if filepath.Dir(path) != kp.dir {
				continue
			}
			for _, decl := range parse(path).Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil ||
					len(fn.Type.Results.List) != 1 {
					continue
				}
				if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == kp.option {
					constructors[kp.path][fn.Name.Name] = 0
				}
			}
		}
		if len(constructors[kp.path]) == 0 {
			t.Fatalf("found no %s constructors in %s", kp.option, kp.dir)
		}
	}

	for _, root := range []string{"cmd", "internal", "examples", "bench"} {
		for _, path := range sources(root) {
			f := parse(path)
			// Local import name → the constructors of that package, for
			// files outside the package itself.
			local := map[string]map[string]int{}
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				ctors, ok := constructors[ip]
				if !ok {
					continue
				}
				name := ip[strings.LastIndex(ip, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				local[name] = ctors
			}
			if len(local) == 0 {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok {
					if ctors := local[x.Name]; ctors != nil {
						if _, ok := ctors[sel.Sel.Name]; ok {
							ctors[sel.Sel.Name]++
						}
					}
				}
				return true
			})
		}
	}

	var unused []string
	for _, kp := range knobPackages {
		for name, calls := range constructors[kp.path] {
			if calls == 0 {
				unused = append(unused, filepath.Base(kp.dir)+"."+name)
			}
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("options with no caller outside their package and tests: %s", strings.Join(unused, ", "))
	}
}
