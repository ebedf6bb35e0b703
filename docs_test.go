package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameExistingCommands: every cmd/<name> the living documents
// mention must be a command that exists. (CHANGES.md and ROADMAP.md are
// history and may name what was removed.)
func TestDocsNameExistingCommands(t *testing.T) {
	cmdRef := regexp.MustCompile(`\bcmd/([a-z0-9_]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		missing := map[string]bool{}
		for _, m := range cmdRef.FindAllSubmatch(text, -1) {
			name := string(m[1])
			if _, err := os.Stat(filepath.Join("cmd", name, "main.go")); err != nil && !missing[name] {
				missing[name] = true
				t.Errorf("%s names cmd/%s, which does not exist", doc, name)
			}
		}
	}
}

// decl is what declared records of one exported name: whether it is a
// function or method, and whether its doc comment deprecates it.
type decl struct{ fn, deprecated bool }

// declared parses the non-test Go files at path (a file or a directory)
// and returns every exported top-level name, methods as "Recv.Name".
func declared(t *testing.T, path string) map[string]decl {
	t.Helper()
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.IsDir() {
		files, _ = filepath.Glob(filepath.Join(path, "*.go"))
	}
	names := map[string]decl{}
	add := func(name string, fn bool, doc *ast.CommentGroup) {
		if ast.IsExported(name[strings.LastIndex(name, ".")+1:]) {
			names[name] = decl{fn: fn, deprecated: strings.Contains(doc.Text(), "Deprecated: ")}
		}
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if idx, ok := typ.(*ast.IndexExpr); ok {
						typ = idx.X
					}
					name = typ.(*ast.Ident).Name + "." + name
				}
				add(name, true, d.Doc)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, false, d.Doc)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id.Name, false, d.Doc)
						}
					}
				}
			}
		}
	}
	return names
}

// TestOneWayIn pins the construction surface: in core, sharded and the
// facade, the exported functions and Queue methods named like a way in
// (New…, Open…, Recover…, Attach…, Decode…) are exactly these. A new
// variation is a field of Config or core.Options, not another name; the
// names marked deprecated exist only for the frozen bench/ module.
func TestOneWayIn(t *testing.T) {
	wayIn := regexp.MustCompile(`^(Queue\.)?(New|Open|Recover|Attach|Decode)`)
	const deprecated = true
	for path, want := range map[string]map[string]bool{
		"internal/core": {
			"New": false, "Open": false, "NewAllocDomain": false, "NewMetrics": false,
			"Queue.AttachWAL": false, "DecodeRecovered": false,
		},
		"internal/sharded": {
			"New": false, "Open": false, "Queue.NewHandle": false,
			"NewDurable": deprecated, "NewDurableCodec": deprecated, "RecoverCodec": deprecated,
		},
		"zmsq.go": {
			"New": false, "NewBlocking": false, "NewStrict": false, "NewMetrics": false, "Open": false,
		},
	} {
		got := declared(t, path)
		for name, d := range got {
			if !d.fn || !wayIn.MatchString(name) {
				continue
			}
			wantDeprecated, ok := want[name]
			switch {
			case !ok:
				t.Errorf("%s exports %s: one way in — make it a field of Config or core.Options", path, name)
			case d.deprecated != wantDeprecated:
				t.Errorf("%s: %s has Deprecated=%v, want %v", path, name, d.deprecated, wantDeprecated)
			}
		}
		for name := range want {
			if !got[name].fn {
				t.Errorf("%s no longer exports %s; update the allow-list", path, name)
			}
		}
	}
}

// TestDocsNameExistingFacade: every repro.<Name> inside a code span or
// fence of the living documents must be declared by the facade.
func TestDocsNameExistingFacade(t *testing.T) {
	facade := declared(t, "zmsq.go")
	ref := regexp.MustCompile(`\brepro\.([A-Z]\w*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		// Odd segments between backticks are code, fenced or inline.
		for i, seg := range strings.Split(string(text), "`") {
			if i%2 == 0 {
				continue
			}
			for _, m := range ref.FindAllStringSubmatch(seg, -1) {
				if _, ok := facade[m[1]]; !ok {
					t.Errorf("%s names repro.%s, which zmsq.go does not declare", doc, m[1])
				}
			}
		}
	}
}
