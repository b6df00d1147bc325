package repro

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// loadbalanceSeam is why the loadbalance schedules' overrides stay:
// binaries run the defaults, and the ops kernel oracle and loadbalance's
// coverage tests set them to shard small shapes across goroutines on any
// core count.
const loadbalanceSeam = "test seam: tests shard small shapes across goroutines on any core count"

// unwrittenFields are the exported fields of config structs under
// internal/ that no non-test file writes, each with the reason it stays.
// An entry that gains a production writer, or whose field is gone, is
// stale and fails the guard.
var unwrittenFields = map[string]string{
	"repro/internal/loadbalance.MergePath.MinRows": loadbalanceSeam,
	"repro/internal/loadbalance.WorkSteal.Workers": loadbalanceSeam,
	"repro/internal/loadbalance.WorkSteal.Chunk":   loadbalanceSeam,
	"repro/internal/loadbalance.WorkSteal.MinRows": loadbalanceSeam,
}

// fieldKey names a struct field by package path, type and field name.
// A field loaded from export data is not the same object as the field
// checked from source, so fields compare by name.
type fieldKey struct{ pkg, typ, field string }

func (k fieldKey) String() string { return k.pkg + "." + k.typ + "." + k.field }

// namedOf returns the generic origin of t's named type, through one
// pointer and any alias, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// structOf returns the struct underlying t, through one pointer, or nil.
func structOf(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// fieldWrites returns the fields the files write: each key of a keyed
// composite literal, every field of an unkeyed one, and the selected
// field on the left of an assignment, ++ or --, or under &.
func fieldWrites(info *types.Info, files []*ast.File) map[fieldKey]bool {
	written := map[fieldKey]bool{}
	mark := func(owner types.Type, f *types.Var) {
		if n := namedOf(owner); n != nil && f.Pkg() != nil {
			written[fieldKey{f.Pkg().Path(), n.Obj().Name(), f.Name()}] = true
		}
	}
	selected := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return
		}
		// Walk the embedding path to the struct that declares the field.
		owner, path := s.Recv(), s.Index()
		for _, i := range path[:len(path)-1] {
			owner = structOf(owner).Field(i).Type()
		}
		mark(owner, s.Obj().(*types.Var))
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := info.Types[n].Type
				st := structOf(typ)
				if st == nil {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							mark(typ, f)
						}
					} else {
						mark(typ, st.Field(i))
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					selected(lhs)
				}
			case *ast.IncDecStmt:
				selected(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					selected(n.X)
				}
			}
			return true
		})
	}
	return written
}

// configFields returns the exported, non-embedded fields of pkg's
// exported struct types, less those with a json tag: a decoder writes
// those.
func configFields(pkg *types.Package) []fieldKey {
	var fields []fieldKey
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); !f.Exported() || f.Embedded() || tagged {
				continue
			}
			fields = append(fields, fieldKey{pkg.Path(), name, f.Name()})
		}
	}
	return fields
}

// checkedPackage is one type-checked package: its non-test files and
// what the checker recorded about them.
type checkedPackage struct {
	path  string
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// checkDir type-checks the non-test files of the package in dir, as
// go/build selects them, under the import path pkgPath.
func checkDir(fset *token.FileSet, dir, pkgPath string, imp types.Importer) (*checkedPackage, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &checkedPackage{pkgPath, pkg, info, files}, nil
}

// modulePackages lists the packages of the module rooted at dir by
// import path → directory, and returns an importer that loads every
// dependency from the compiler export data `go list -export` builds.
func modulePackages(fset *token.FileSet, dir string) (map[string]string, types.Importer, error) {
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-f", "{{.ImportPath}}\t{{.Export}}\t{{.Dir}}\t{{with .Module}}{{.Main}}{{end}}", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list -export in %s: %v", dir, err)
	}
	exports, pkgs := map[string]string{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		exports[f[0]] = f[1]
		if f[3] == "true" {
			pkgs[f[0]] = f[2]
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	return pkgs, imp, nil
}

// modules holds every non-test package of this module and of bench/,
// type-checked once for the guards that read them.
var modules struct {
	once sync.Once
	fset *token.FileSet
	pkgs []*checkedPackage
	err  error
}

// checkedPackages returns the type-checked non-test packages of this
// module and of bench/, and the file set their positions refer to.
func checkedPackages(t *testing.T) (*token.FileSet, []*checkedPackage) {
	t.Helper()
	modules.once.Do(func() {
		modules.fset = token.NewFileSet()
		for _, mod := range []string{".", "bench"} {
			pkgs, imp, err := modulePackages(modules.fset, mod)
			if err != nil {
				modules.err = err
				return
			}
			for path, dir := range pkgs {
				cp, err := checkDir(modules.fset, dir, path, imp)
				var noGo *build.NoGoError
				if errors.As(err, &noGo) {
					continue // the root package holds only tests
				}
				if err != nil {
					modules.err = fmt.Errorf("%s: %v", path, err)
					return
				}
				modules.pkgs = append(modules.pkgs, cp)
			}
		}
	})
	if modules.err != nil {
		t.Fatal(modules.err)
	}
	return modules.fset, modules.pkgs
}

// TestEveryFieldIsWritten is the dead-setting guard: every exported
// field of an exported struct type declared in a non-test file under
// internal/ must be written by some non-test file of this module or of
// bench/. A field only tests set selects behaviour no binary can reach
// — the blind spot of TestEveryFuncIsLinked, since the code behind it
// is still linked. Fields with a json tag are exempt, because a decoder
// writes them; unwrittenFields lists the other exceptions.
func TestEveryFieldIsWritten(t *testing.T) {
	_, pkgs := checkedPackages(t)
	written := map[fieldKey]bool{}
	var fields []fieldKey
	for _, cp := range pkgs {
		for k := range fieldWrites(cp.info, cp.files) {
			written[k] = true
		}
		if strings.HasPrefix(cp.path, "repro/internal/") {
			fields = append(fields, configFields(cp.pkg)...)
		}
	}

	declared := map[string]bool{}
	var unwritten, stale []string
	for _, f := range fields {
		key := f.String()
		declared[key] = true
		_, allowed := unwrittenFields[key]
		switch {
		case !written[f] && !allowed:
			unwritten = append(unwritten, key)
		case written[f] && allowed:
			stale = append(stale, key+" (now written)")
		}
	}
	for key := range unwrittenFields {
		if !declared[key] {
			stale = append(stale, key+" (no longer declared)")
		}
	}
	sort.Strings(unwritten)
	sort.Strings(stale)
	if len(unwritten) > 0 {
		t.Errorf("no non-test file writes these %d fields; delete them and what they select, or make them constants:\n%s",
			len(unwritten), strings.Join(unwritten, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("stale unwrittenFields entries: %s", strings.Join(stale, ", "))
	}
}

// TestFieldWrites pins what fieldWrites counts as a write on small
// packages: each case's files, and the fields configFields should still
// report unwritten.
func TestFieldWrites(t *testing.T) {
	const decls = `package p

type T struct{ F, G int }

type Inner struct{ F int }

type Outer struct{ B Inner }

type L struct{ K, N int }

type J struct {
	F int ` + "`json:\"f\"`" + `
}

type Hidden struct{ f int }

type Embeds struct{ T }
`
	for _, tc := range []struct {
		name      string
		files     map[string]string
		unwritten []string
	}{
		// J.F (json tag), Hidden.f (unexported) and Embeds.T (embedded)
		// are never candidates.
		{"no writes", nil,
			[]string{"T.F", "T.G", "Inner.F", "Outer.B", "L.K", "L.N"}},
		{"keyed literal", map[string]string{"w.go": "var _ = T{F: 1}"},
			[]string{"T.G", "Inner.F", "Outer.B", "L.K", "L.N"}},
		{"unkeyed literal", map[string]string{"w.go": "var _ = T{1, 2}"},
			[]string{"Inner.F", "Outer.B", "L.K", "L.N"}},
		{"nested selector", map[string]string{"w.go": "func w(a *Outer) { a.B.F = 1 }"},
			[]string{"T.F", "T.G", "Outer.B", "L.K", "L.N"}},
		{"compound assignment", map[string]string{"w.go": "func w(x *T) { x.F += 1 }"},
			[]string{"T.G", "Inner.F", "Outer.B", "L.K", "L.N"}},
		{"increment", map[string]string{"w.go": "func w(x *T) { x.G++ }"},
			[]string{"T.F", "Inner.F", "Outer.B", "L.K", "L.N"}},
		{"address taken", map[string]string{"w.go": "func w(x *T) *int { return &x.F }"},
			[]string{"T.G", "Inner.F", "Outer.B", "L.K", "L.N"}},
		{"elided element types", map[string]string{"w.go": "var _ = []L{{K: 1}}\nvar _ = map[int]*L{0: {N: 1}}"},
			[]string{"T.F", "T.G", "Inner.F", "Outer.B"}},
		{"promoted field", map[string]string{"w.go": "func w(e *Embeds) { e.G = 1 }"},
			[]string{"T.F", "Inner.F", "Outer.B", "L.K", "L.N"}},
		{"read only", map[string]string{"w.go": "func w(x T) int { return x.F }"},
			[]string{"T.F", "T.G", "Inner.F", "Outer.B", "L.K", "L.N"}},
		{"written only in a test file", map[string]string{"w_test.go": "var _ = T{F: 1, G: 2}"},
			[]string{"T.F", "T.G", "Inner.F", "Outer.B", "L.K", "L.N"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			files := map[string]string{"decls.go": decls}
			for name, src := range tc.files {
				files[name] = "package p\n\n" + src + "\n"
			}
			for name, src := range files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cp, err := checkDir(token.NewFileSet(), dir, "p", nil)
			if err != nil {
				t.Fatal(err)
			}
			written := fieldWrites(cp.info, cp.files)
			var unwritten []string
			for _, f := range configFields(cp.pkg) {
				if !written[f] {
					unwritten = append(unwritten, f.typ+"."+f.field)
				}
			}
			sort.Strings(unwritten)
			want := slices.Clone(tc.unwritten)
			sort.Strings(want)
			if !slices.Equal(unwritten, want) {
				t.Errorf("unwritten = %v, want %v", unwritten, want)
			}
		})
	}
}

// compilePieces are the functions the compile pipeline's passes wrap.
// Outside the packages that define and wrap them, a call to one of them
// is a second compile path: a plan that skips the pipeline's other
// passes, verification among them.
var compilePieces = []string{
	"repro/internal/split.Apply",
	"repro/internal/sched.Heuristic",
	"repro/internal/sched.HeuristicWithOptions",
	"repro/internal/sched.PrefetchH2D",
}

// compilePieceOwners are the packages that may call compilePieces: the
// pipeline's passes and the pieces themselves.
var compilePieceOwners = []string{
	"repro/internal/compiler",
	"repro/internal/sched",
	"repro/internal/split",
}

const benchFrozen = "the benchmark's exec workloads build their plan by hand; bench/ changes only with the benchmark"

// compilePathExceptions are the non-test files that call a compile
// piece directly, keyed by file and piece, each with its reason. An
// entry whose call is gone is stale and fails the guard.
var compilePathExceptions = map[string]string{
	"internal/experiments/fig1c.go split.Apply":    "Fig. 1(c) measures the split itself",
	"internal/experiments/fig3.go sched.Heuristic": "Fig. 3's illustration sets the heuristic's plan against hand-written orders and the PB optimum",
	"bench/execw.go split.Apply":                   benchFrozen,
	"bench/execw.go sched.Heuristic":               benchFrozen,
	"bench/execw.go sched.PrefetchH2D":             benchFrozen,
}

// TestOneCompilePath is the one-compile-path guard: every plan a binary
// executes comes out of the compile pipeline (core.Service or a
// compiler.Pipeline), so it has passed the pipeline's verify pass. It
// fails on any non-test use of a compile piece outside the packages
// that own them, in this module and in bench/, unless
// compilePathExceptions names the file and the piece.
func TestOneCompilePath(t *testing.T) {
	fset, pkgs := checkedPackages(t)
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pieces := map[string]bool{}
	for _, p := range compilePieces {
		pieces[p] = true
	}
	sites := map[string][]string{} // "file piece" → "file:line in func"
	for _, cp := range pkgs {
		if slices.Contains(compilePieceOwners, cp.path) {
			continue
		}
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				where := "package scope"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					where = fd.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := cp.info.Uses[id].(*types.Func)
					if !ok || fn.Pkg() == nil || !pieces[fn.Pkg().Path()+"."+fn.Name()] {
						return true
					}
					pos := fset.Position(id.Pos())
					file, err := filepath.Rel(root, pos.Filename)
					if err != nil {
						t.Fatal(err)
					}
					file = filepath.ToSlash(file)
					key := file + " " + fn.Pkg().Name() + "." + fn.Name()
					sites[key] = append(sites[key], fmt.Sprintf("%s:%d in %s", file, pos.Line, where))
					return true
				})
			}
		}
	}

	var second, stale []string
	for key, at := range sites {
		if _, ok := compilePathExceptions[key]; !ok {
			second = append(second, fmt.Sprintf("%s (%s)", key, strings.Join(at, ", ")))
		}
	}
	for key := range compilePathExceptions {
		if sites[key] == nil {
			stale = append(stale, key)
		}
	}
	sort.Strings(second)
	sort.Strings(stale)
	if len(second) > 0 {
		t.Errorf("%d non-test call sites build a plan outside the compile pipeline; compile through core.Service or a compiler.Pipeline instead:\n%s",
			len(second), strings.Join(second, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("stale compilePathExceptions entries: %s", strings.Join(stale, ", "))
	}
}
