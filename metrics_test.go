// The reader rule: every metric family and every flight-recorder reason
// in internal/obs is read by something that would notice if it went
// wrong. docs/OBSERVABILITY.md, "Who reads the catalog", states the rule
// and what it decided.
package menos_test

import (
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

	read := make([]bool, len(names))
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
				}
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
}
