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

// TestMetricCatalogIsDocumented ties names.go and spans.go to the
// operator docs in both directions. Every Metric* name appears in a doc as a whole name,
// not as the prefix of a longer one. Every menos_* name a doc mentions,
// read without its {…} labels and its _bucket/_sum/_count/_p50/_p90/_p99
// suffix, is a Metric* name, so a deleted family cannot keep its row. A
// name written with a trailing * ("the menos_fleet_* series") is a
// prefix, and must start at least one Metric* name. Every Span* entry
// of spans.go has a row in the span table of docs/OBSERVABILITY.md, and
// every row there is a Span* entry.
func TestMetricCatalogIsDocumented(t *testing.T) {
	checkSpanTable(t)
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

// spanTableHeader opens the span table of docs/OBSERVABILITY.md.
const spanTableHeader = "| Span | Category |"

// checkSpanTable ties the Span* entries of spans.go to the rows of the
// span table in docs/OBSERVABILITY.md, in both directions. A row is
// | `<name>` | `<category>` | ..., and the table ends at its first
// non-table line.
func checkSpanTable(t *testing.T) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "spans.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[SpanKind]string{}
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.VAR {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if !strings.HasPrefix(id.Name, "Span") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok || len(lit.Elts) != 2 {
					t.Fatalf("%s is not SpanKind{name, category}", id.Name)
				}
				var pair [2]string
				for j, e := range lit.Elts {
					b, ok := e.(*ast.BasicLit)
					if !ok || b.Kind != token.STRING {
						t.Fatalf("%s is not a SpanKind of two string literals", id.Name)
					}
					pair[j], _ = strconv.Unquote(b.Value)
				}
				catalog[SpanKind{pair[0], pair[1]}] = id.Name
			}
		}
	}
	if len(catalog) == 0 {
		t.Fatal("no Span* entries found in spans.go")
	}

	b, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, spanTableHeader) {
			start = i + 2 // past the header and its separator
			break
		}
	}
	if start < 0 {
		t.Fatalf("docs/OBSERVABILITY.md has no span table (a line starting %q)", spanTableHeader)
	}
	row := regexp.MustCompile("^\\| `([^`]+)` \\| `([^`]+)` \\|")
	documented := map[SpanKind]bool{}
	for _, l := range lines[start:] {
		if !strings.HasPrefix(l, "|") {
			break
		}
		m := row.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("span table row %q is not | `<name>` | `<category>` | ...", l)
			continue
		}
		k := SpanKind{m[1], m[2]}
		if _, ok := catalog[k]; !ok {
			t.Errorf("the span table names %q in category %q, which is no Span* entry in spans.go: delete its row, or record it", k.Name, k.Cat)
		}
		documented[k] = true
	}
	for k, ident := range catalog {
		if !documented[k] {
			t.Errorf("%s (%q, %q) has no row in the span table of docs/OBSERVABILITY.md", ident, k.Name, k.Cat)
		}
	}
}
