package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMetricCatalogIsDocumented: every Metric* name in names.go appears
// in the operator docs (docs/OBSERVABILITY.md or docs/FLEET.md) as a
// whole name, not as the prefix of a longer one.
func TestMetricCatalogIsDocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "names.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var docs strings.Builder
	for _, path := range []string{"../../docs/OBSERVABILITY.md", "../../docs/FLEET.md"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs.Write(b)
	}
	names := 0
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if !strings.HasPrefix(id.Name, "Metric") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("%s is not a string literal", id.Name)
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				names++
				whole := regexp.MustCompile(`(^|[^a-z0-9_:])` + regexp.QuoteMeta(name) + `([^a-z0-9_:]|$)`)
				if !whole.MatchString(docs.String()) {
					t.Errorf("%s (%s) is in no operator doc: add it to docs/OBSERVABILITY.md or docs/FLEET.md", id.Name, name)
				}
			}
		}
	}
	if names == 0 {
		t.Fatal("no Metric* constants found in names.go")
	}
}
