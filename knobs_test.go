package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
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

// unlinkedFuncs are the functions in non-test files under internal/ that
// no binary links, each with the reason it stays. An entry that becomes
// linked, or whose function is gone, is stale and fails the guard.
var unlinkedFuncs = map[string]string{
	"repro/internal/obs.Tracer.OpenSpans": "the span-leak assertions of core's, compiler's, serve's and obs' tests",
}

// reflectMethodSyms are the reflect entry points that make the linker
// keep every exported method of every reachable type, which would hide a
// dead method from TestEveryFuncIsLinked.
var reflectMethodSyms = []string{
	"reflect.Value.Method", "reflect.Value.MethodByName",
	"reflect.(*rtype).Method", "reflect.(*rtype).MethodByName",
}

// closurePart matches the suffixes the compiler gives a function's
// closures and go/defer wrappers: func1, gowrap1, deferwrap1, and the 2
// of a nested func1.2.
var closurePart = regexp.MustCompile(`^(func|gowrap|deferwrap)?[0-9]+$`)

// symbolKey turns a text symbol as `go tool nm` prints it into the key of
// the declaration it belongs to: path.Func or path.Type.Method, with the
// receiver's pointer and every type-argument group dropped and closure,
// wrapper and method-value (-fm) suffixes cut. ok is false for a symbol
// of a package outside this module.
func symbolKey(sym string) (key string, ok bool) {
	// A generic instantiation prints its shapes inside [...], spaces,
	// dots and import paths included; drop each group whole.
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	if !strings.HasPrefix(s, "repro/") && !strings.HasPrefix(s, "main.") {
		return "", false
	}
	slash := strings.LastIndex(s, "/") + 1
	dot := slash + strings.Index(s[slash:], ".")
	parts := strings.Split(s[dot+1:], ".")
	name := strings.TrimSuffix(strings.TrimPrefix(parts[0], "(*"), ")")
	if len(parts) > 1 && !closurePart.MatchString(parts[1]) {
		name += "." + strings.TrimSuffix(parts[1], "-fm")
	}
	return s[:dot] + "." + name, true
}

// declKey names a declaration the way symbolKey names its symbols.
func declKey(pkgPath string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return pkgPath + "." + fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if s, ok := recv.(*ast.StarExpr); ok {
		recv = s.X
	}
	switch ix := recv.(type) { // a generic receiver, T[V] or T[K, V]
	case *ast.IndexExpr:
		recv = ix.X
	case *ast.IndexListExpr:
		recv = ix.X
	}
	return pkgPath + "." + recv.(*ast.Ident).Name + "." + fn.Name.Name
}

// linkedSymbols builds every main package of the module with inlining
// off, so that a function inlined at each call site still has a symbol,
// and without DWARF, which nm does not read. It returns each binary's
// symbol keys by binary name. bench/ is a module of its own and counts
// only as one more binary.
func linkedSymbols(t *testing.T) (keys map[string]map[string]bool, reflectUsers []string) {
	t.Helper()
	dir := t.TempDir()
	for _, args := range [][]string{
		{"build", "-gcflags=all=-l", "-ldflags=-w", "-o", dir + string(filepath.Separator), "./cmd/...", "./examples/..."},
		{"build", "-C", "bench", "-gcflags=all=-l", "-ldflags=-w", "-o", filepath.Join(dir, "bench"), "."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys = map[string]map[string]bool{}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin.Name(), err)
		}
		linked := map[string]bool{}
		for _, line := range strings.Split(string(out), "\n") {
			// "<addr> <type> <name>", the name possibly holding spaces.
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := strings.Join(f[2:], " ")
			if slices.Contains(reflectMethodSyms, sym) {
				reflectUsers = append(reflectUsers, bin.Name()+" links "+sym)
			}
			if key, ok := symbolKey(sym); ok {
				linked[key] = true
			}
		}
		keys[bin.Name()] = linked
	}
	if len(keys) != 11 {
		t.Fatalf("built %d binaries, want the 5 of cmd/, the 5 of examples/ and bench", len(keys))
	}
	return keys, reflectUsers
}

// TestEveryFuncIsLinked is the dead-code guard: production code is what
// a binary links. Every function and method declared in a non-test file
// under internal/ must be linked by some binary of cmd/, examples/ or
// bench/, and every function of a cmd/ or examples/ main by that main's
// own binary. A function only tests call belongs in a _test.go file;
// unlinkedFuncs lists the exceptions.
func TestEveryFuncIsLinked(t *testing.T) {
	binaries, reflectUsers := linkedSymbols(t)
	if len(reflectUsers) > 0 {
		t.Fatalf("reflection by method name keeps every exported method, so linkage proves nothing: %s",
			strings.Join(reflectUsers, ", "))
	}
	anyLinked := map[string]bool{}
	for _, linked := range binaries {
		for key := range linked {
			anyLinked[key] = true
		}
	}

	fset := token.NewFileSet()
	declared := map[string]bool{}
	var unlinked, stale []string
	for _, root := range []string{"internal", "cmd", "examples"} {
		for _, path := range sources(t, root) {
			f := parse(t, fset, path)
			dir := filepath.ToSlash(filepath.Dir(path))
			pkgPath, linked := "repro/"+dir, anyLinked
			if root != "internal" {
				pkgPath, linked = "main", binaries[filepath.Base(dir)]
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				key := declKey(pkgPath, fn)
				declared[key] = true
				_, allowed := unlinkedFuncs[key]
				switch {
				case !linked[key] && !allowed:
					unlinked = append(unlinked, fmt.Sprintf("%s (%s)", key, fset.Position(fn.Pos())))
				case linked[key] && allowed:
					stale = append(stale, key+" (now linked)")
				}
			}
		}
	}
	for key := range unlinkedFuncs {
		if !declared[key] {
			stale = append(stale, key+" (no longer declared)")
		}
	}
	sort.Strings(unlinked)
	sort.Strings(stale)
	if len(unlinked) > 0 {
		t.Errorf("no binary links these %d functions; move them into tests or delete them:\n%s",
			len(unlinked), strings.Join(unlinked, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("stale unlinkedFuncs entries: %s", strings.Join(stale, ", "))
	}
}

// TestSymbolKey pins symbolKey on symbol forms `go tool nm` prints for
// this module's binaries.
func TestSymbolKey(t *testing.T) {
	for _, tc := range []struct{ sym, key string }{
		// Generic instantiations: shapes with spaces, dots and import
		// paths inside the brackets.
		{"repro/internal/graph.(*chunks[go.shape.struct { ID int; Name string; Op repro/internal/graph.Operator; In []repro/internal/graph.Arg; Out repro/internal/graph.Arg }]).next",
			"repro/internal/graph.chunks.next"},
		{"repro/internal/compiler.NewCache[go.shape.*uint8]", "repro/internal/compiler.NewCache"},
		{"repro/internal/compiler.(*Cache[go.shape.*uint8]).Stats.deferwrap1", "repro/internal/compiler.Cache.Stats"},
		// Closures, go wrappers and method values.
		{"repro/internal/compiler.PartitionPass.Run.func1", "repro/internal/compiler.PartitionPass.Run"},
		{"repro/internal/core.(*Engine).compileAutoTuned.func1", "repro/internal/core.Engine.compileAutoTuned"},
		{"main.(*compileInst).tracedOp.func1.2", "main.compileInst.tracedOp"},
		{"main.(*serveInst).parallel.gowrap1", "main.serveInst.parallel"},
		{"main.instance.after-fm", "main.instance.after"},
		{"main.init.func1", "main.init"},
		// Value and pointer receivers, and a plain function.
		{"repro/internal/compiler.BaselinePass.Run", "repro/internal/compiler.BaselinePass.Run"},
		{"repro/internal/pb.(*Solver).initSlacks", "repro/internal/pb.Solver.initSlacks"},
		{"repro/internal/sched.DepthFirstOrder", "repro/internal/sched.DepthFirstOrder"},
		// Outside the module, even when a type argument is inside it.
		{"slices.Contains[go.shape.[]*repro/internal/graph.Buffer,go.shape.*repro/internal/graph.Buffer]", ""},
		{"type:.eq.[1]repro/internal/gpu.Spec", ""},
		{"runtime.main", ""},
	} {
		key, ok := symbolKey(tc.sym)
		if key != tc.key || ok != (tc.key != "") {
			t.Errorf("symbolKey(%q) = %q, %v; want %q", tc.sym, key, ok, tc.key)
		}
	}
}
