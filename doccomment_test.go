package spatial_test

// Godoc audit, enforced: every exported identifier in the public packages
// (root, geo, internal/wal) and in the cmd/spatialserve handlers must
// carry a doc comment that names what it documents - the same contract
// `revive`'s exported rule checks, kept in-repo so it runs with plain
// `go test` and never drifts from the toolchain.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// auditedDirs are the packages whose exported surface must be documented.
var auditedDirs = []string{".", "geo", "internal/core", "internal/wal", "internal/cluster", "internal/metrics", "internal/ingest", "internal/trace", "ingestclient", "cmd/spatialserve"}

func TestExportedIdentifiersAreDocumented(t *testing.T) {
	for _, dir := range auditedDirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			hasPkgDoc := false
			for _, f := range pkg.Files {
				if f.Doc != nil {
					hasPkgDoc = true
				}
				for _, decl := range f.Decls {
					checkDecl(t, fset, decl)
				}
			}
			if !hasPkgDoc {
				t.Errorf("%s: package %s has no package comment", dir, pkg.Name)
			}
		}
	}
}

func checkDecl(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	switch d := decl.(type) {
	case *ast.FuncDecl:
		// Every exported method counts, whatever its receiver: methods of
		// an unexported type embedded in an exported one are promoted
		// into the public API.
		if !d.Name.IsExported() {
			return
		}
		requireDoc(t, fset, d.Pos(), d.Doc, d.Name.Name)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				doc := s.Doc
				if doc == nil {
					doc = d.Doc
				}
				requireDoc(t, fset, s.Pos(), doc, s.Name.Name)
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if !name.IsExported() {
						continue
					}
					// Grouped consts/vars may share the block comment; no
					// name-prefix requirement for them.
					if s.Doc == nil && d.Doc == nil && s.Comment == nil {
						t.Errorf("%s: exported %s %s has no doc comment",
							fset.Position(name.Pos()), declKind(d.Tok), name.Name)
					}
				}
			}
		}
	}
}

func declKind(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// requireDoc demands a doc comment whose opening sentence names the
// identifier (leading articles allowed, matching godoc convention).
func requireDoc(t *testing.T, fset *token.FileSet, pos token.Pos, doc *ast.CommentGroup, name string) {
	t.Helper()
	if doc == nil || strings.TrimSpace(doc.Text()) == "" {
		t.Errorf("%s: exported %s has no doc comment", fset.Position(pos), name)
		return
	}
	words := strings.Fields(doc.Text())
	for i, w := range words {
		if i > 2 {
			break
		}
		if w == name || strings.HasPrefix(w, name+"(") {
			return
		}
	}
	t.Errorf("%s: doc comment for %s should start with (or soon mention) %q, got %q",
		fset.Position(pos), name, name, strings.Join(words[:min(4, len(words))], " "))
}
