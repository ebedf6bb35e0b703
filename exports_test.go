package repro_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goFile is one parsed Go file with its package's import path.
type goFile struct {
	pkg  string // import path, e.g. "repro/internal/wire"
	name string // path relative to the root module
	test bool
	f    *ast.File
}

// parseModule parses every Go file of the module rooted at dir, skipping
// testdata and hidden directories, and the bench module when dir is the
// root.
func parseModule(t *testing.T, dir, module string) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || p == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if rel, _ := filepath.Rel(dir, filepath.Dir(p)); rel != "." {
			pkg = path.Join(module, filepath.ToSlash(rel))
		}
		files = append(files, goFile{pkg: pkg, name: p, test: strings.HasSuffix(p, "_test.go"), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// packageDirs maps the import path of every directory of the module rooted
// at dir to that directory, skipping testdata, hidden directories and
// nested modules (bench/ in the root module).
func packageDirs(dir, module string, into map[string]string) error {
	return filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != dir {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, _ := filepath.Rel(dir, p)
		into[path.Join(module, filepath.ToSlash(rel))] = p
		return nil
	})
}

// typeChecker type-checks the non-test files of module packages. It is
// the importer of its own checks: a module package is imported from its
// own check, so every use of a declaration resolves to one object, and
// the standard library is type-checked from source.
type typeChecker struct {
	fset *token.FileSet
	dirs map[string]string // import path → directory
	pkgs map[string]*types.Package
	info *types.Info         // shared by every module package's check
	recv map[*ast.Ident]bool // identifiers in method receivers
	std  types.ImporterFrom
}

func newTypeChecker(dirs map[string]string) *typeChecker {
	fset := token.NewFileSet()
	return &typeChecker{
		fset: fset,
		dirs: dirs,
		pkgs: map[string]*types.Package{},
		info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}},
		recv: map[*ast.Ident]bool{},
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

func (c *typeChecker) Import(p string) (*types.Package, error) { return c.ImportFrom(p, "", 0) }

func (c *typeChecker) ImportFrom(p, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := c.dirs[p]; !ok {
		return c.std.ImportFrom(p, dir, mode)
	}
	return c.check(p)
}

// check type-checks the package at import path p once. It returns nil
// and no error for a directory with no non-test Go file.
func (c *typeChecker) check(p string) (*types.Package, error) {
	if pkg, ok := c.pkgs[p]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(c.dirs[p], 0)
	if err != nil {
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			c.pkgs[p] = nil
			return nil, nil
		}
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						c.recv[id] = true
					}
					return true
				})
			}
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: c}).Check(p, c.fset, files, c.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", p, err)
	}
	c.pkgs[p] = pkg
	return pkg, nil
}

// hooksSrc declares the standard interfaces the standard library reaches
// through an any (fmt, errors, sort, container/heap, encoding/json): a
// method that lets its type satisfy one is used although no file names it.
const hooksSrc = `package hooks

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"fmt"
	"sort"
)

type (
	_ fmt.Stringer
	_ fmt.GoStringer
	_ fmt.Formatter
	_ error
	_ interface{ Unwrap() error }
	_ interface{ Unwrap() []error }
	_ interface{ Is(error) bool }
	_ interface{ As(any) bool }
	_ sort.Interface
	_ heap.Interface
	_ json.Marshaler
	_ json.Unmarshaler
	_ encoding.TextMarshaler
	_ encoding.TextUnmarshaler
)
`

// deadExports type-checks the non-test files of every package of the
// given modules (import path → root directory) and returns each exported
// function, type, variable, constant and method declared under
// <module>/internal/ that nothing uses, as "pkg.Name" or
// "pkg.Recv.Method" → position. A declaration is used when a non-test
// file names it: types.Info.Uses records the object of every identifier,
// the selected one of a selector included, and an instantiated generic
// method is compared as its Origin. A method is also used when it lets
// its type satisfy an interface: one that the type of an expression, or
// a parameter or result of a called function, names, or a standard hook
// (hooksSrc). Methods of the types that facade aliases are the public API
// and never dead.
func deadExports(modules map[string]string, facade string) (map[string]string, error) {
	dirs := map[string]string{}
	for module, dir := range modules {
		if err := packageDirs(dir, module, dirs); err != nil {
			return nil, err
		}
	}
	c := newTypeChecker(dirs)
	for p := range dirs {
		if _, err := c.check(p); err != nil {
			return nil, err
		}
	}
	hf, err := parser.ParseFile(c.fset, "hooks.go", hooksSrc, 0)
	if err != nil {
		return nil, err
	}
	hooks := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{Importer: c}).Check("hooks", c.fset, []*ast.File{hf}, hooks); err != nil {
		return nil, err
	}

	internal := func(pkg *types.Package) bool {
		if pkg == nil {
			return false
		}
		for module := range modules {
			if strings.HasPrefix(pkg.Path(), module+"/internal/") {
				return true
			}
		}
		return false
	}
	used := map[types.Object]bool{}
	for id, obj := range c.info.Uses {
		if c.recv[id] {
			continue // a method's own receiver does not use its type
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		used[obj] = true
	}

	// Interfaces the code uses, and the internal named types whose values
	// it handles (instantiated, when generic).
	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	named := map[*types.Named]bool{}
	collect := func(tvs map[ast.Expr]types.TypeAndValue) {
		for _, tv := range tvs {
			if tv.Type == nil {
				continue
			}
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tuple.Len(); i++ {
						addIface(tuple.At(i).Type())
					}
				}
			}
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok && internal(n.Obj().Pkg()) {
				named[n] = true
			}
		}
	}
	collect(c.info.Types)
	collect(hooks.Types)
	for n := range named {
		if _, ok := n.Underlying().(*types.Interface); ok {
			continue
		}
		for it := range ifaces {
			var t types.Type = n
			if !types.Implements(t, it) {
				if t = types.NewPointer(n); !types.Implements(t, it) {
					continue
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name()); obj != nil {
					used[obj.(*types.Func).Origin()] = true
				}
			}
		}
	}

	aliased := map[*types.TypeName]bool{}
	if pkg := c.pkgs[facade]; pkg != nil {
		for _, name := range pkg.Scope().Names() {
			obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !obj.IsAlias() {
				continue
			}
			if n, ok := types.Unalias(obj.Type()).(*types.Named); ok {
				aliased[n.Origin().Obj()] = true
			}
		}
	}

	// A type is used when a file names it outside its own receivers or
	// when one of its methods is used.
	dead := map[string]string{}
	report := func(obj types.Object, id string) {
		if obj.Exported() && !used[obj] {
			dead[obj.Pkg().Path()+"."+id] = c.fset.Position(obj.Pos()).String()
		}
	}
	for _, pkg := range c.pkgs {
		if !internal(pkg) {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			n, ok := obj.Type().(*types.Named)
			if tn, isType := obj.(*types.TypeName); !isType || !ok || tn.IsAlias() {
				report(obj, name)
				continue
			}
			methodUsed := false
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				methodUsed = methodUsed || used[m]
				if !aliased[n.Obj()] {
					report(m, name+"."+m.Name())
				}
			}
			if !methodUsed {
				report(obj, name)
			}
		}
	}
	return dead, nil
}

// deadExportAllowed lists exported names in internal/ that no non-test
// file uses, each kept for the reason given.
var deadExportAllowed = map[string]string{
	"repro/internal/harness.RunOpLatency":    "the runner of the root BenchmarkOpLatency (§4.2's per-operation latency claims)",
	"repro/internal/experiment.ValidateGrid": "the canonical-schema check the expgrid and experiment tests share",
	"repro/internal/hazard.Domain.Records":   "core's reclamation tests bound the hazard-gated domain's record growth through it; they build that domain themselves, and no wiring site needs the count",
}

// TestNoDeadExports: every exported name declared in internal/ is used by
// a non-test file of the root module or of the bench module (see
// deadExports for what counts as a use).
func TestNoDeadExports(t *testing.T) {
	// Type-check the pure-Go build of the standard library: the source
	// importer then needs no C toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	dead, err := deadExports(map[string]string{"repro": ".", "repro/bench": "bench"}, "repro")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for id := range dead {
		if _, ok := deadExportAllowed[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		t.Errorf("%s (%s) is exported, but no non-test file uses it: delete it, or allow-list it with a reason", id, dead[id])
	}
	for id := range deadExportAllowed {
		if _, ok := dead[id]; !ok {
			t.Errorf("%s is allow-listed but no longer declared or no longer unused; update the allow-list", id)
		}
	}
}

// TestDeadExportsCases pins what the guard reports on a small module
// under testdata/deadexports.
func TestDeadExportsCases(t *testing.T) {
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	dead, err := deadExports(map[string]string{"example": "testdata/deadexports"}, "example")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id   string
		dead bool
		why  string
	}{
		{"example/internal/shapes.Square.Name", true, "shares its name with the used Circle.Name"},
		{"example/internal/shapes.Circle.Name", false, "called by name"},
		{"example/internal/shapes.Circle.Area", false, "satisfies an interface the code uses"},
		{"example/internal/shapes.Box.Open", false, "a method of a type the facade aliases"},
	} {
		if _, got := dead[c.id]; got != c.dead {
			t.Errorf("%s: reported dead = %v, want %v (%s)", c.id, got, c.dead, c.why)
		}
	}
	if len(dead) != 1 {
		t.Errorf("reported %v, want only Square.Name", dead)
	}
}

// TestStatsOutOfModule: statistics live in internal/metrics. internal/stats
// keeps one deprecated forwarder for the frozen bench module, and no
// package of the root module imports it.
func TestStatsOutOfModule(t *testing.T) {
	for _, gf := range parseModule(t, ".", "repro") {
		for _, imp := range gf.f.Imports {
			if imp.Path.Value == `"repro/internal/stats"` {
				t.Errorf("%s imports repro/internal/stats; use repro/internal/metrics", gf.name)
			}
		}
	}
}
