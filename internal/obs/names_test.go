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

// catalogDocs are the operator docs that name metric families.
var catalogDocs = []string{"../../docs/OBSERVABILITY.md", "../../docs/FLEET.md", "../../docs/ADMISSION.md"}

// TestMetricCatalogIsDocumented ties names.go to the operator docs in
// both directions. Every Metric* name appears in a doc as a whole name,
// not as the prefix of a longer one. Every menos_* name a doc mentions,
// read without its {…} labels and its _bucket/_sum/_count/_p50/_p90/_p99
// suffix, is a Metric* name, so a deleted family cannot keep its row. A
// name written with a trailing * ("the menos_fleet_* series") is a
// prefix, and must start at least one Metric* name.
func TestMetricCatalogIsDocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "names.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var docs strings.Builder
	for _, path := range catalogDocs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs.Write(b)
	}
	catalog := map[string]bool{}
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
				catalog[name] = true
				whole := regexp.MustCompile(`(^|[^a-z0-9_:])` + regexp.QuoteMeta(name) + `([^a-z0-9_:]|$)`)
				if !whole.MatchString(docs.String()) {
					t.Errorf("%s (%s) is in no operator doc: add it to docs/OBSERVABILITY.md, docs/FLEET.md or docs/ADMISSION.md", id.Name, name)
				}
			}
		}
	}
	if len(catalog) == 0 {
		t.Fatal("no Metric* constants found in names.go")
	}

	mentioned := regexp.MustCompile(`(?:^|[^a-z0-9_:])(menos_[a-z0-9_]*[a-z0-9])(_\*)?`)
	suffix := regexp.MustCompile(`_(bucket|sum|count|p50|p90|p99)$`)
	reported := map[string]bool{}
	for _, m := range mentioned.FindAllStringSubmatch(docs.String(), -1) {
		name := m[1]
		if m[2] != "" {
			prefix := name + "_"
			found := false
			for c := range catalog {
				found = found || strings.HasPrefix(c, prefix)
			}
			if !found && !reported[prefix] {
				reported[prefix] = true
				t.Errorf("the docs name the prefix %s*, which starts no Metric* name in names.go", prefix)
			}
			continue
		}
		if !catalog[name] {
			name = suffix.ReplaceAllString(name, "")
		}
		if !catalog[name] && !reported[name] {
			reported[name] = true
			t.Errorf("the docs name %s, which is no Metric* name in names.go: delete its row, or register it", m[1])
		}
	}
}
