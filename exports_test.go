package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
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

// importNames maps each import's local name to its path.
func importNames(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = p
	}
	return m
}

// baseType strips a pointer and type arguments from a type expression:
// Queue for *Queue[V], core.Queue for core.Queue[V].
func baseType(typ ast.Expr) ast.Expr {
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch ix := typ.(type) {
	case *ast.IndexExpr:
		return ix.X
	case *ast.IndexListExpr:
		return ix.X
	}
	return typ
}

// deadExportAllowed lists exported names in internal/ that no non-test
// file uses, each kept for the reason given.
var deadExportAllowed = map[string]string{
	"repro/internal/harness.RunOpLatency":    "the runner of the root BenchmarkOpLatency (§4.2's per-operation latency claims)",
	"repro/internal/experiment.ValidateGrid": "the canonical-schema check the expgrid and experiment tests share",
	"repro/internal/klsm.New":                "the k-LSM baseline, built only by its own tests and the harness adapter's",
}

// TestNoDeadExports: every exported top-level name and method declared in
// internal/ is mentioned by a non-test file of the root module or of the
// bench module. Exempt are the methods of types zmsq.go aliases (the
// public API) and methods named like an interface method — one an
// interface of the module declares, or a standard one (String, Error,
// Unwrap, Less, ...) — which callers reach without naming the type.
func TestNoDeadExports(t *testing.T) {
	files := append(parseModule(t, ".", "repro"), parseModule(t, "bench", "repro/bench")...)

	ifaceMethods := map[string]bool{
		"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
		"Less": true, "Len": true, "Swap": true, "Push": true, "Pop": true,
		"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
		"MarshalJSON": true, "UnmarshalJSON": true,
	}
	aliased := map[string]bool{} // "pkg.Type" of every facade alias
	decls := map[string]string{} // "pkg.Name" or "pkg.Recv.Method" → file
	declIdents := map[*ast.Ident]bool{}
	for _, gf := range files {
		if gf.test {
			continue
		}
		imports := importNames(gf.f)
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						ifaceMethods[id.Name] = true
					}
				}
			case *ast.TypeSpec:
				if sel, ok := baseType(n.Type).(*ast.SelectorExpr); ok && n.Assign.IsValid() && gf.name == "zmsq.go" {
					aliased[imports[sel.X.(*ast.Ident).Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		internal := strings.HasPrefix(gf.pkg, "repro/internal/")
		declare := func(id *ast.Ident, name string) {
			declIdents[id] = true
			if internal && id.IsExported() {
				decls[gf.pkg+"."+name] = gf.name
			}
		}
		for _, d := range gf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					name = baseType(d.Recv.List[0].Type).(*ast.Ident).Name + "." + name
				}
				declare(d.Name, name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name, s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id, id.Name)
						}
					}
				}
			}
		}
	}

	// A top-level name is used when its own package names it unqualified
	// or another package selects it through an import; a method is used
	// when anything selects its name.
	used := map[string]bool{}
	selected := map[string]bool{}
	for _, gf := range files {
		if gf.test {
			continue
		}
		imports := importNames(gf.f)
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !declIdents[n] {
					used[gf.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}

	isUsed := func(id string) bool {
		slash := strings.LastIndex(id, "/")
		pkgEnd := slash + strings.Index(id[slash:], ".")
		pkg, name := id[:pkgEnd], id[pkgEnd+1:]
		if recv, method, ok := strings.Cut(name, "."); ok {
			return selected[method] || ifaceMethods[method] || aliased[pkg+"."+recv]
		}
		return used[id]
	}
	var dead []string
	for id, file := range decls {
		if _, ok := deadExportAllowed[id]; !ok && !isUsed(id) {
			dead = append(dead, id+" ("+file+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported, but no non-test file uses it: delete it, or allow-list it with a reason", d)
	}
	for id := range deadExportAllowed {
		if _, ok := decls[id]; !ok || isUsed(id) {
			t.Errorf("%s is allow-listed but no longer declared or no longer unused; update the allow-list", id)
		}
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
