package spatial_test

// API guard: the root package's exported surface - identifiers, exported
// struct fields and every exported type's pointer method set, promoted
// methods included - is pinned in testdata/api.txt. A change that adds,
// removes or retypes any of it fails here; an intended API change edits
// the file in the same commit.

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestExportedAPIUnchanged(t *testing.T) {
	pkg, err := importer.ForCompiler(token.NewFileSet(), "source", nil).Import("repro")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("testdata/api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	got := exportedAPI(pkg)
	for _, line := range got {
		if !slices.Contains(want, line) {
			t.Errorf("added or changed: %s", line)
		}
	}
	for _, line := range want {
		if !slices.Contains(got, line) {
			t.Errorf("removed or changed: %s", line)
		}
	}
}

// exportedAPI lists pkg's exported API, one declaration per line, sorted.
// Signatures carry parameter types only: renaming a parameter is not an
// API change.
func exportedAPI(pkg *types.Package) []string {
	q := types.RelativeTo(pkg)
	var out []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch o := scope.Lookup(name).(type) {
		case *types.Const:
			if o.Exported() {
				out = append(out, fmt.Sprintf("const %s %s = %s", name, types.TypeString(o.Type(), q), o.Val()))
			}
		case *types.Var:
			if o.Exported() {
				out = append(out, fmt.Sprintf("var %s %s", name, types.TypeString(o.Type(), q)))
			}
		case *types.Func:
			if o.Exported() {
				out = append(out, "func "+name+signature(o.Type().(*types.Signature), q))
			}
		case *types.TypeName:
			if !o.Exported() {
				continue
			}
			typ := o.Type()
			under := typ.Underlying()
			if st, ok := under.(*types.Struct); ok {
				out = append(out, "type "+name+" struct")
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						out = append(out, fmt.Sprintf("field %s.%s %s", name, f.Name(), types.TypeString(f.Type(), q)))
					}
				}
			} else {
				out = append(out, fmt.Sprintf("type %s %s", name, types.TypeString(under, q)))
			}
			mt := types.Type(types.NewPointer(typ))
			if types.IsInterface(typ) {
				mt = typ
			}
			ms := types.NewMethodSet(mt)
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					out = append(out, fmt.Sprintf("method (*%s).%s%s", name, m.Name(), signature(m.Type().(*types.Signature), q)))
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// signature formats sig as "(params) results" with types only.
func signature(sig *types.Signature, q types.Qualifier) string {
	tuple := func(t *types.Tuple, variadic bool) string {
		parts := make([]string, t.Len())
		for i := range parts {
			typ := t.At(i).Type()
			if variadic && i == t.Len()-1 {
				parts[i] = "..." + types.TypeString(typ.(*types.Slice).Elem(), q)
			} else {
				parts[i] = types.TypeString(typ, q)
			}
		}
		return strings.Join(parts, ", ")
	}
	s := "(" + tuple(sig.Params(), sig.Variadic()) + ")"
	switch r := sig.Results(); r.Len() {
	case 0:
	case 1:
		s += " " + tuple(r, false)
	default:
		s += " (" + tuple(r, false) + ")"
	}
	return s
}
