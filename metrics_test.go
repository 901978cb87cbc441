// The reader rule: every metric family, flight-recorder reason and span
// in internal/obs is read by something that would notice if it went
// wrong. docs/OBSERVABILITY.md, "Who reads the catalog", states the rule
// and what it decided.
package menos_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// readerDirs are the non-test code that reads telemetry on an
// operator's or the benchmark's behalf: the alert rules, the menos-top
// dashboard, the paper tables and the benchmark.
var readerDirs = []string{"internal/alert", "cmd/menos-top", "internal/experiments", "perf"}

// readerFiles are single non-test files that read telemetry: the
// /loadz documents a control plane polls.
var readerFiles = map[string]bool{"internal/server/loadz.go": true, "internal/fleet/loadz.go": true}

// telemetryName is one Metric* or FlightReason* constant in internal/obs
// and the pattern a string literal that names it matches. A metric is
// named as a whole series name, optionally with a histogram or quantile
// suffix; a prefix such as "menos_sched_" names nothing. A flight reason
// is a short word, so only the form a flight record carries it in,
// "reason":"<value>", counts.
type telemetryName struct {
	ident, value string
	pos          token.Position
	named        *regexp.Regexp
}

func newTelemetryName(ident, value string, pos token.Position) telemetryName {
	pattern := `(^|[^a-z0-9_:])` + regexp.QuoteMeta(value) + `(_bucket|_sum|_count|_p50|_p90|_p99)?([^a-z0-9_:]|$)`
	if strings.HasPrefix(ident, "FlightReason") {
		pattern = `"reason":"` + regexp.QuoteMeta(value) + `["':]`
	}
	return telemetryName{ident, value, pos, regexp.MustCompile(pattern)}
}

// isTelemetryReader reports whether f may count as a reader: a test file
// outside internal/obs (e2e/ included), or non-test code in readerDirs
// or readerFiles.
func isTelemetryReader(fset *token.FileSet, f surfaceFile) bool {
	if f.test {
		return f.dir != "internal/obs"
	}
	if readerFiles[filepath.ToSlash(fset.Position(f.ast.Package).Filename)] {
		return true
	}
	for _, d := range readerDirs {
		if f.dir == d || strings.HasPrefix(f.dir, d+"/") {
			return true
		}
	}
	return false
}

// spanPair is a span's (name, category). A span is read where it is
// named as obs.Span*, or where the pair stands as two adjacent string
// literals in one composite literal or call, {"forward", "compute"}: a
// name alone is too short a word to count.
type spanPair struct{ name, cat string }

// catalogSpan is one Span* variable of internal/obs's span catalog.
type catalogSpan struct {
	ident string
	pair  spanPair
	pos   token.Position
}

// stringLit returns the value of a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// spanCatalog lists the Span* variables declared by internal/obs's
// non-test files as SpanKind{"<name>", "<category>"}.
func spanCatalog(t *testing.T, fset *token.FileSet, files []surfaceFile) []catalogSpan {
	t.Helper()
	var out []catalogSpan
	for _, f := range files {
		if f.test || f.dir != "internal/obs" {
			continue
		}
		for _, decl := range f.ast.Decls {
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
					if typ, _ := lit.Type.(*ast.Ident); !ok || typ == nil || typ.Name != "SpanKind" {
						continue
					}
					if len(lit.Elts) != 2 {
						t.Fatalf("obs.%s is not SpanKind{name, category}", id.Name)
					}
					name, ok1 := stringLit(lit.Elts[0])
					cat, ok2 := stringLit(lit.Elts[1])
					if !ok1 || !ok2 {
						t.Fatalf("obs.%s is not a SpanKind of two string literals", id.Name)
					}
					out = append(out, catalogSpan{id.Name, spanPair{name, cat}, fset.Position(id.Pos())})
				}
			}
		}
	}
	return out
}

// telemetryNames lists the Metric* and FlightReason* string constants
// declared by internal/obs's non-test files.
func telemetryNames(t *testing.T, fset *token.FileSet, files []surfaceFile) []telemetryName {
	t.Helper()
	var out []telemetryName
	for _, f := range files {
		if f.test || f.dir != "internal/obs" {
			continue
		}
		for _, decl := range f.ast.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.CONST {
				continue
			}
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if !strings.HasPrefix(id.Name, "Metric") && !strings.HasPrefix(id.Name, "FlightReason") || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Fatalf("obs.%s is not a string literal", id.Name)
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, newTelemetryName(id.Name, v, fset.Position(id.Pos())))
				}
			}
		}
	}
	return out
}

func TestEveryMetricHasAReader(t *testing.T) {
	fset := token.NewFileSet()
	files := parseTree(t, fset)
	names := telemetryNames(t, fset, files)
	if len(names) == 0 {
		t.Fatal("no Metric* or FlightReason* constants found in internal/obs")
	}
	byIdent := map[string]int{}
	for i, n := range names {
		byIdent[n.ident] = i
	}
	spans := spanCatalog(t, fset, files)
	if len(spans) == 0 {
		t.Fatal("no Span* catalog entries found in internal/obs")
	}
	spanByIdent, spanByPair := map[string]int{}, map[spanPair][]int{}
	for i, s := range spans {
		spanByIdent[s.ident] = i
		spanByPair[s.pair] = append(spanByPair[s.pair], i)
	}

	read := make([]bool, len(names))
	spanRead := make([]bool, len(spans))
	// readPairs marks the spans named by adjacent string literals of one
	// expression list.
	readPairs := func(exprs []ast.Expr) {
		for i := 0; i+1 < len(exprs); i++ {
			name, ok1 := stringLit(exprs[i])
			cat, ok2 := stringLit(exprs[i+1])
			if ok1 && ok2 {
				for _, j := range spanByPair[spanPair{name, cat}] {
					spanRead[j] = true
				}
			}
		}
	}
	for _, f := range files {
		if !isTelemetryReader(fset, f) {
			continue
		}
		obsName := ""
		for _, spec := range f.ast.Imports {
			if path, _ := strconv.Unquote(spec.Path.Value); path == modulePath+"/internal/obs" {
				obsName = "obs"
				if spec.Name != nil {
					obsName = spec.Name.Name
				}
			}
		}
		ast.Inspect(f.ast, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := node.X.(*ast.Ident); ok && obsName != "" && pkg.Name == obsName {
					if i, ok := byIdent[node.Sel.Name]; ok {
						read[i] = true
					}
					if i, ok := spanByIdent[node.Sel.Name]; ok {
						spanRead[i] = true
					}
				}
			case *ast.CompositeLit:
				readPairs(node.Elts)
			case *ast.CallExpr:
				readPairs(node.Args)
			case *ast.BasicLit:
				if node.Kind != token.STRING {
					return true
				}
				s, err := strconv.Unquote(node.Value)
				if err != nil {
					return true
				}
				for i, n := range names {
					if !read[i] && strings.Contains(s, n.value) && n.named.MatchString(s) {
						read[i] = true
					}
				}
			}
			return true
		})
	}

	var unread []string
	for i, n := range names {
		if !read[i] {
			unread = append(unread, n.pos.String()+": obs."+n.ident+" ("+n.value+")")
		}
	}
	sort.Strings(unread)
	for _, s := range unread {
		t.Errorf("%s has no reader: no alert rule, menos-top pane, /loadz, experiments table, perf detail or test outside internal/obs names it or its string. Assert it in a test, or delete it with its registration, update sites and docs row", s)
	}
	var unreadSpans []string
	for i, s := range spans {
		if !spanRead[i] {
			unreadSpans = append(unreadSpans, fmt.Sprintf("%s: obs.%s (%q, %q)", s.pos, s.ident, s.pair.name, s.pair.cat))
		}
	}
	sort.Strings(unreadSpans)
	for _, s := range unreadSpans {
		t.Errorf("%s has no reader: no experiments table, perf detail or test outside internal/obs names it, or asserts its name and category as adjacent string literals. Pin it in a span-sequence test, or delete it with its record sites and docs row", s)
	}
}
