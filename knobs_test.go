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

// callerRoots are the trees whose non-test files count as callers.
// Nothing outside this module can import internal/, so a function that
// none of them calls is test code.
var callerRoots = []string{"cmd", "internal", "examples", "bench"}

// sources lists the non-test .go files under root, testdata aside.
func sources(t *testing.T, root string) []string {
	t.Helper()
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

// parse parses one file into fset.
func parse(t *testing.T, fset *token.FileSet, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

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

	// constructors[import path][func name] counts the calls found.
	constructors := map[string]map[string]int{}
	for _, kp := range knobPackages {
		constructors[kp.path] = map[string]int{}
		for _, path := range sources(t, kp.dir) {
			if filepath.Dir(path) != kp.dir {
				continue
			}
			for _, decl := range parse(t, fset, path).Decls {
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

	for _, root := range callerRoots {
		for _, path := range sources(t, root) {
			f := parse(t, fset, path)
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

// interfaceMethods are the standard-library interface methods
// (error, fmt.Stringer, errors.Unwrap, sort.Interface, heap.Interface)
// that the runtime, fmt, errors, sort or container/heap call by name.
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// testOnlyFuncs are the exported functions that only tests call, each
// with the test that needs it. An entry that gains a non-test caller, or
// whose function is gone, is stale and fails the guard.
var testOnlyFuncs = map[string]string{
	"ops.NewConv2D":                "the reference Conv2DSame and the kernel oracle compare against (ops' convsame_test, kernel_oracle_test)",
	"sched.GreedyMemoryAwareOrder": "BenchmarkAblationOperatorOrder",
	"sched.BFSOrder":               "BenchmarkAblationOperatorOrder",
	"sched.RandomTopoOrder":        "BenchmarkAblationOperatorOrder",
	"sched.FusedHeuristic":         "BenchmarkAblationGranularity",
	"obs.(*Tracer).OpenSpans":      "the span-leak assertions of core's and compiler's tests",
}

// funcKey names a declaration as pkg.Func, pkg.T.Method or
// pkg.(*T).Method.
func funcKey(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return pkg + "." + fn.Name.Name
	}
	recv, ptr := fn.Recv.List[0].Type, false
	if s, ok := recv.(*ast.StarExpr); ok {
		recv, ptr = s.X, true
	}
	if ix, ok := recv.(*ast.IndexExpr); ok { // a generic receiver, T[V]
		recv = ix.X
	}
	name := recv.(*ast.Ident).Name
	if ptr {
		name = "(*" + name + ")"
	}
	return pkg + "." + name + "." + fn.Name.Name
}

// TestEveryExportedFuncHasACaller extends the knob-rot guard to every
// exported function and method declared in a non-test file under
// internal/: its name must appear as an identifier in a non-test file
// of cmd/, internal/, examples/ or bench/ other than its own
// declaration. The check is by name, so a method shares its callers
// with every same-named one; interfaceMethods and testOnlyFuncs are
// exempt.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{}    // key → name
	declNames := map[*ast.Ident]bool{} // the declarations' own name identifiers
	used := map[string]bool{}
	var files []*ast.File
	for _, root := range callerRoots {
		for _, path := range sources(t, root) {
			f := parse(t, fset, path)
			files = append(files, f)
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declNames[fn.Name] = true
				if root != "internal" || !fn.Name.IsExported() ||
					(fn.Recv != nil && interfaceMethods[fn.Name.Name]) {
					continue
				}
				declared[funcKey(f.Name.Name, fn)] = fn.Name.Name
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
			}
			return true
		})
	}

	var unused, stale []string
	for key, name := range declared {
		_, allowed := testOnlyFuncs[key]
		switch {
		case !used[name] && !allowed:
			unused = append(unused, key)
		case used[name] && allowed:
			stale = append(stale, key+" (now has a non-test caller)")
		}
	}
	for key := range testOnlyFuncs {
		if _, ok := declared[key]; !ok {
			stale = append(stale, key+" (no longer declared)")
		}
	}
	sort.Strings(unused)
	sort.Strings(stale)
	if len(unused) > 0 {
		t.Errorf("exported functions with no non-test caller: %s", strings.Join(unused, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("stale testOnlyFuncs entries: %s", strings.Join(stale, ", "))
	}
}
