// The surface rule: every exported package-level func, method, type,
// var or const under internal/ has a reader other than its own
// package's tests. A reader is a non-test file anywhere in the tree
// (perf/ and examples/ included) or a test file of another package.
// The scan is by name, not by type: a method counts as read when any
// such file selects a member of that name, which errs on the side of
// keeping things. DESIGN.md, "Surface: what is kept and who reads it",
// says who reads what stays.
package menos_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The module path; an import "menos/<dir>" names the package in <dir>.
const modulePath = "menos"

// Methods named for a standard-library interface are called through
// that interface, where no selector in this tree names them.
var standardMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, "GoString": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// surfaceExemptions names the exported identifiers kept without a
// reader, keyed "<dir>.<Name>" or "<dir>.<Type>.<Method>", each with
// its reason. An entry that stops needing its exemption fails the test.
var surfaceExemptions = map[string]string{
	"internal/memmodel.MenosPeakBytes":   "Eq. 3 peak, the analytic side of DESIGN.md §3's calibration against measured gpu.peak_bytes",
	"internal/memmodel.VanillaPeakBytes": "Eq. 2 peak, the analytic side of DESIGN.md §3's calibration against measured gpu.peak_bytes",
}

// surfaceFile is one parsed file and the directory it sits in,
// slash-separated and relative to the module root.
type surfaceFile struct {
	dir  string
	test bool
	ast  *ast.File
}

// surfaceDecl is one exported declaration under internal/.
type surfaceDecl struct {
	dir, recv, name string
	pos             token.Position
}

func (d surfaceDecl) key() string {
	if d.recv != "" {
		return d.dir + "." + d.recv + "." + d.name
	}
	return d.dir + "." + d.name
}

func TestEveryExportHasAReader(t *testing.T) {
	fset := token.NewFileSet()
	files := parseTree(t, fset)

	// Who reads what: "<dir>.<Name>" for a package-level name,
	// ".<Name>" for a selected member. A read counts unless it comes
	// from a test file of the declaring package.
	type reader struct {
		dir  string
		test bool
	}
	reads := map[string][]reader{}
	for _, f := range files {
		collectReads(f, func(key string) { reads[key] = append(reads[key], reader{f.dir, f.test}) })
	}
	isRead := func(key, ownDir string) bool {
		for _, r := range reads[key] {
			if !r.test || r.dir != ownDir {
				return true
			}
		}
		return false
	}

	var dead []string
	exempted := map[string]bool{}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range exportedDecls(fset, f) {
			var ok bool
			if d.recv != "" {
				ok = standardMethods[d.name] || isRead("."+d.name, d.dir)
			} else {
				ok = isRead(d.dir+"."+d.name, d.dir)
			}
			if _, exempt := surfaceExemptions[d.key()]; exempt {
				exempted[d.key()] = true
				if ok {
					t.Errorf("%s is exempted but has a reader: drop its exemption", d.key())
				}
				continue
			}
			if !ok {
				dead = append(dead, d.pos.String()+": "+d.key())
			}
		}
	}
	for key := range surfaceExemptions {
		if !exempted[key] {
			t.Errorf("%s is exempted but not declared: drop its exemption", key)
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s has no reader outside its own package's tests: delete it, or move it into a _test.go file", s)
	}
}

// parseTree parses every .go file under the module root, nested
// modules included, skipping hidden directories and testdata.
func parseTree(t *testing.T, fset *token.FileSet) []surfaceFile {
	t.Helper()
	var files []surfaceFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, surfaceFile{
			dir:  filepath.ToSlash(filepath.Dir(path)),
			test: strings.HasSuffix(path, "_test.go"),
			ast:  f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// exportedDecls lists f's exported package-level funcs, methods,
// types, vars and consts.
func exportedDecls(fset *token.FileSet, f surfaceFile) []surfaceDecl {
	var out []surfaceDecl
	add := func(recv string, id *ast.Ident) {
		if id.IsExported() {
			out = append(out, surfaceDecl{dir: f.dir, recv: recv, name: id.Name, pos: fset.Position(id.Pos())})
		}
	}
	for _, decl := range f.ast.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			add(receiverName(decl), decl.Name)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add("", spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add("", id)
					}
				}
			}
		}
	}
	return out
}

// receiverName is a method's receiver type name, "" for a function.
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// collectReads reports every name f reads: "<dir>.<Name>" for a
// package-qualified or same-package identifier, ".<Name>" for any
// other selector. Declared names, struct fields, parameters and a
// function's references to itself are not reads.
func collectReads(f surfaceFile, read func(key string)) {
	imports := map[string]string{} // local name -> directory
	for _, spec := range f.ast.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		dir, ok := strings.CutPrefix(path, modulePath+"/")
		if !ok {
			continue
		}
		name := dir[strings.LastIndex(dir, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = dir
	}

	skip := map[*ast.Ident]bool{}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
		case *ast.TypeSpec:
			skip[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
		}
		return true
	})

	for _, decl := range f.ast.Decls {
		self := ""
		if fn, ok := decl.(*ast.FuncDecl); ok {
			self = fn.Name.Name
			if fn.Recv != nil {
				self = "." + self
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[pkg.Name]; ok {
						read(dir + "." + n.Sel.Name)
						return false
					}
				}
				if "."+n.Sel.Name != self {
					read("." + n.Sel.Name)
				}
			case *ast.Ident:
				if !skip[n] && n.Name != self {
					read(f.dir + "." + n.Name)
				}
			}
			return true
		})
	}
}
