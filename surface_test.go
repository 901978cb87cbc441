// The surface rule: every exported package-level func, method, type,
// var or const under internal/, and every exported field of an
// exported struct type there, has a reader other than its own
// package's tests. A reader is a non-test file anywhere in the tree
// (perf/, examples/ and cmd/ included) or a test file of another
// package. Unexported package-level funcs and methods, anywhere in the
// tree, need a reference of any kind.
//
// Readers are found by type, not by name: the test type-checks every
// package of the module and of the nested perf/ module, test files
// included, under the host's build constraints plus the e2e tag, and
// counts a reference to the declared object. A concrete method also
// counts as read when its type is converted to an interface somewhere
// and an interface method it implements is referenced, where the
// methods of a standard-library interface count as referenced by the
// standard library. A blank `var _ I = (*T)(nil)` assertion reads
// nothing, and neither does a func's reference to itself. Because perf/ is type-checked here, a change that breaks the
// benchmark's build fails this test. DESIGN.md, "Surface: what is kept
// and who reads it", says who reads what stays.
package menos_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The module path; an import "menos/<dir>" names the package in <dir>.
const modulePath = "menos"

// surfaceExemptions names the identifiers kept without a reader, keyed
// "<dir>.<Name>" or "<dir>.<Type>.<Member>", each with its reason. An
// entry that stops needing its exemption fails the test.
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

// reader is where a reference sits: a directory, and whether in a test
// file.
type reader struct {
	dir  string
	test bool
}

// surfacePkg is one package directory: its files as the host builds
// them, and its type-checked form. files holds the package's own files
// with its in-package tests; a package imports that same form, which
// is sound because a package's tests may not import anything that
// imports it. xtest holds its external test package's files.
type surfacePkg struct {
	dir          string
	files, xtest []*ast.File
	pkg          *types.Package
	checking     bool
}

func (sp *surfacePkg) allFiles() []*ast.File {
	return append(append([]*ast.File(nil), sp.files...), sp.xtest...)
}

// surfaceProgram is the type-checked tree.
type surfaceProgram struct {
	fset  *token.FileSet
	pkgs  map[string]*surfacePkg // by import path
	std   types.Importer
	info  *types.Info
	xpkgs []*types.Package // external test packages
	errs  []error
}

func (p *surfaceProgram) Import(path string) (*types.Package, error) {
	sp, ok := p.pkgs[path]
	if !ok {
		return p.std.Import(path)
	}
	if sp.checking {
		return nil, errors.New("import cycle through " + path)
	}
	if sp.pkg == nil {
		sp.checking = true
		sp.pkg = p.check(path, sp.files)
		sp.checking = false
	}
	return sp.pkg, nil
}

func (p *surfaceProgram) check(path string, files []*ast.File) *types.Package {
	conf := types.Config{Importer: p, Error: func(err error) { p.errs = append(p.errs, err) }}
	pkg, _ := conf.Check(path, p.fset, files, p.info)
	return pkg
}

// loadProgram parses and type-checks every package under the module
// root, nested modules included, skipping hidden directories and
// testdata.
func loadProgram(t *testing.T) *surfaceProgram {
	t.Helper()
	ctx := build.Default
	ctx.BuildTags = append(ctx.BuildTags, "e2e")
	prog := &surfaceProgram{
		fset: token.NewFileSet(),
		pkgs: map[string]*surfacePkg{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
		},
	}
	modules := map[string]string{} // module root dir -> module path
	parse := func(dir string, names []string) []*ast.File {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(prog.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		dir := filepath.ToSlash(path)
		if mod := modulePathOf(t, filepath.Join(path, "go.mod")); mod != "" {
			modules[dir] = mod
		}
		bp, err := ctx.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		root := dir
		for modules[root] == "" {
			root = filepath.ToSlash(filepath.Dir(root))
		}
		importPath := modules[root]
		if dir != root {
			importPath += "/" + strings.TrimPrefix(dir, root+"/")
		}
		prog.pkgs[importPath] = &surfacePkg{
			dir:   dir,
			files: parse(path, append(bp.GoFiles, bp.TestGoFiles...)),
			xtest: parse(path, bp.XTestGoFiles),
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prog.std = stdImporter(t, prog)
	for _, path := range sortedKeys(prog.pkgs) {
		sp := prog.pkgs[path]
		if _, err := prog.Import(path); err != nil {
			t.Fatal(err)
		}
		if len(sp.xtest) > 0 {
			prog.xpkgs = append(prog.xpkgs, prog.check(path+"_test", sp.xtest))
		}
	}
	for i, err := range prog.errs {
		if i == 10 {
			t.Fatalf("... and %d more type errors", len(prog.errs)-i)
		}
		t.Error(err)
	}
	if len(prog.errs) > 0 {
		t.FailNow()
	}
	return prog
}

// stdImporter reads the export data of every standard-library package
// the tree imports, all of it located by one `go list -export`.
func stdImporter(t *testing.T, prog *surfaceProgram) types.Importer {
	t.Helper()
	std := map[string]bool{}
	for _, sp := range prog.pkgs {
		for _, f := range sp.allFiles() {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if _, local := prog.pkgs[path]; !local {
					std[path] = true
				}
			}
		}
	}
	list := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, sortedKeys(std)...)...)
	list.Stderr = os.Stderr
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, export, _ := strings.Cut(line, " ")
		exports[path] = export
	}
	return importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		if export := exports[path]; export != "" {
			return os.Open(export)
		}
		return nil, errors.New("no export data for " + path)
	})
}

// modulePathOf reads the module line of a go.mod, "" if there is none.
func modulePathOf(t *testing.T, gomod string) string {
	data, err := os.ReadFile(gomod)
	if errors.Is(err, fs.ErrNotExist) {
		return ""
	} else if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod)
		}
	}
	t.Fatalf("%s has no module line", gomod)
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// origin is the generic object behind an instantiated func or field.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// interfaceOf is the interface an interface method belongs to, nil for
// a concrete method or a plain func.
func interfaceOf(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

// references lists, for each object, where it is referenced, and
// which named types are boxed: converted into an interface value,
// where any interface method they implement may be called on them.
// Uses inside a blank `var _ I = …` assertion, and a func's uses of
// itself, are left out.
func (p *surfaceProgram) references() (map[types.Object][]reader, map[*types.Named]bool) {
	w := &walker{p: p, refs: map[types.Object][]reader{}, boxed: map[*types.Named]bool{}}
	for _, sp := range p.pkgs {
		for _, f := range sp.allFiles() {
			w.at = reader{dir: sp.dir, test: strings.HasSuffix(p.fset.File(f.Pos()).Name(), "_test.go")}
			for _, decl := range f.Decls {
				w.self = nil
				var results *types.Tuple
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					w.self = p.info.Defs[decl.Name]
					results = w.self.Type().(*types.Signature).Results()
				case *ast.GenDecl:
					if isBlankAssertion(decl) {
						continue
					}
				}
				w.walk(decl, results)
			}
		}
	}
	return w.refs, w.boxed
}

// walker records the references and boxings in one declaration.
type walker struct {
	p     *surfaceProgram
	at    reader
	self  types.Object
	refs  map[types.Object][]reader
	boxed map[*types.Named]bool
}

// walk visits n, whose return statements return results.
func (w *walker) walk(n ast.Node, results *types.Tuple) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := w.p.info.Uses[n]; obj != nil && origin(obj) != w.self {
				w.refs[origin(obj)] = append(w.refs[origin(obj)], w.at)
			}
		case *ast.FuncLit:
			w.walk(n.Type, results)
			w.walk(n.Body, w.typeOf(n).(*types.Signature).Results())
			return false
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				var to []types.Type
				for _, lhs := range n.Lhs {
					to = append(to, w.typeOf(lhs))
				}
				w.boxAll(to, n.Rhs)
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				to := make([]types.Type, len(n.Names))
				for i := range to {
					to[i] = w.typeOf(n.Type)
				}
				w.boxAll(to, n.Values)
			}
		case *ast.ReturnStmt:
			w.boxAll(tupleTypes(results), n.Results)
		case *ast.SendStmt:
			if ch, ok := w.typeOf(n.Chan).Underlying().(*types.Chan); ok {
				w.box(w.typeOf(n.Value), ch.Elem())
			}
		case *ast.CallExpr:
			w.boxCall(n)
		case *ast.CompositeLit:
			w.boxLiteral(n)
		}
		return true
	})
}

func (w *walker) typeOf(e ast.Expr) types.Type { return w.p.info.Types[e].Type }

func tupleTypes(t *types.Tuple) []types.Type {
	var out []types.Type
	for i := 0; i < t.Len(); i++ {
		out = append(out, t.At(i).Type())
	}
	return out
}

// boxAll boxes each of from into the matching type of to; one
// multi-valued expression spreads over all of to.
func (w *walker) boxAll(to []types.Type, from []ast.Expr) {
	if len(from) == 1 && len(to) > 1 {
		if tuple, ok := w.typeOf(from[0]).(*types.Tuple); ok {
			for i, t := range tupleTypes(tuple) {
				w.box(t, to[i])
			}
		}
		return
	}
	for i := range min(len(to), len(from)) {
		w.box(w.typeOf(from[i]), to[i])
	}
}

// box records a value of type from converted to type to.
func (w *walker) box(from, to types.Type) {
	if from != nil && to != nil && types.IsInterface(to) && !types.IsInterface(from) {
		w.markBoxed(from)
	}
}

// markBoxed marks t's named type boxed, with every type it embeds,
// whose methods are promoted into the boxed value's method set.
func (w *walker) markBoxed(t types.Type) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || w.boxed[named.Origin()] {
		return
	}
	w.boxed[named.Origin()] = true
	if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Embedded() {
				w.markBoxed(st.Field(i).Type())
			}
		}
	}
}

// boxCall boxes a call's arguments into its parameters, a conversion's
// operand into its type, and append's elements into the slice's.
func (w *walker) boxCall(call *ast.CallExpr) {
	fun := w.p.info.Types[call.Fun]
	switch {
	case fun.IsType():
		if len(call.Args) == 1 {
			w.box(w.typeOf(call.Args[0]), fun.Type)
		}
	case fun.IsBuiltin():
		if slice, ok := w.typeOf(call).(*types.Slice); ok && !call.Ellipsis.IsValid() {
			for _, arg := range call.Args[1:] {
				w.box(w.typeOf(arg), slice.Elem())
			}
		}
	default:
		sig, ok := fun.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		params := tupleTypes(sig.Params())
		if sig.Variadic() && !call.Ellipsis.IsValid() {
			last := params[len(params)-1].(*types.Slice).Elem()
			for len(params) < len(call.Args) {
				params = append(params, last)
			}
			params[sig.Params().Len()-1] = last
		}
		w.boxAll(params, call.Args)
	}
}

// boxLiteral boxes a composite literal's elements into its fields,
// elements, keys and values.
func (w *walker) boxLiteral(lit *ast.CompositeLit) {
	t := w.typeOf(lit)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for i, elt := range lit.Elts {
		kv, keyed := elt.(*ast.KeyValueExpr)
		value := elt
		if keyed {
			value = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if keyed {
				if field, ok := w.p.info.Uses[kv.Key.(*ast.Ident)]; ok {
					w.box(w.typeOf(value), field.Type())
				}
			} else {
				w.box(w.typeOf(value), u.Field(i).Type())
			}
		case *types.Slice:
			w.box(w.typeOf(value), u.Elem())
		case *types.Array:
			w.box(w.typeOf(value), u.Elem())
		case *types.Map:
			w.box(w.typeOf(kv.Key), u.Key())
			w.box(w.typeOf(value), u.Elem())
		}
	}
}

// isBlankAssertion reports whether decl is `var _ T = …`, a
// compile-time assertion that reads nothing at run time.
func isBlankAssertion(decl *ast.GenDecl) bool {
	if decl.Tok != token.VAR {
		return false
	}
	for _, spec := range decl.Specs {
		vs := spec.(*ast.ValueSpec)
		if vs.Type == nil {
			return false
		}
		for _, id := range vs.Names {
			if id.Name != "_" {
				return false
			}
		}
	}
	return true
}

// interfaceMethods lists the interface methods a concrete method may
// implement, by name, with their readers: every referenced method of
// an interface in the tree, and every method of an interface declared
// by a standard-library package the tree imports, of error, and of the
// Unwrap interfaces errors.Is and errors.As look for, which the
// standard library reads.
func (p *surfaceProgram) interfaceMethods(refs map[types.Object][]reader) map[string][]*types.Func {
	byName := map[string][]*types.Func{}
	for obj := range refs {
		if fn, ok := obj.(*types.Func); ok && interfaceOf(fn) != nil {
			byName[fn.Name()] = append(byName[fn.Name()], fn)
		}
	}
	std := reader{dir: "std"}
	scopes := []*types.Scope{types.Universe}
	seen := map[*types.Package]bool{}
	pkgs := p.xpkgs
	for _, sp := range p.pkgs {
		pkgs = append(pkgs, sp.pkg)
	}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Imports() {
			if _, local := p.pkgs[imp.Path()]; !local && !seen[imp] {
				seen[imp] = true
				scopes = append(scopes, imp.Scope())
			}
		}
	}
	errorType := types.Universe.Lookup("error").Type()
	ifaces := []*types.Interface{unwrapInterface(errorType), unwrapInterface(types.NewSlice(errorType))}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() && tn.Pkg() != nil {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, iface)
			}
		}
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			fn := iface.Method(i)
			refs[fn] = append(refs[fn], std)
			byName[fn.Name()] = append(byName[fn.Name()], fn)
		}
	}
	return byName
}

// unwrapInterface is interface{ Unwrap() result }.
func unwrapInterface(result types.Type) *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", result)), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete()
}

// surfaceDecl is one declaration the rule covers.
type surfaceDecl struct {
	dir, key string
	obj      types.Object
	recv     *types.Named // a method's or field's type
}

// surfaceDecls lists the declarations the rule covers in non-test
// files: exported ones under internal/, and unexported package-level
// funcs and methods anywhere.
func (p *surfaceProgram) surfaceDecls() []surfaceDecl {
	var out []surfaceDecl
	for _, path := range sortedKeys(p.pkgs) {
		sp := p.pkgs[path]
		internal := strings.HasPrefix(sp.dir, "internal/")
		covered := func(obj types.Object) bool {
			if strings.HasSuffix(p.fset.Position(obj.Pos()).Filename, "_test.go") {
				return false
			}
			if obj.Exported() {
				return internal
			}
			_, fn := obj.(*types.Func)
			return fn && obj.Name() != "init" && obj.Name() != "main"
		}
		scope := sp.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if covered(obj) {
				out = append(out, surfaceDecl{dir: sp.dir, key: sp.dir + "." + name, obj: obj})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); covered(m) {
					out = append(out, surfaceDecl{dir: sp.dir, key: sp.dir + "." + name + "." + m.Name(), obj: m, recv: named})
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !obj.Exported() || !internal {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() && covered(f) {
					out = append(out, surfaceDecl{dir: sp.dir, key: sp.dir + "." + name + "." + f.Name(), obj: f, recv: named})
				}
			}
		}
	}
	return out
}

func TestEveryExportHasAReader(t *testing.T) {
	prog := loadProgram(t)
	refs, boxed := prog.references()
	ifaceMethods := prog.interfaceMethods(refs)

	// readers of d: its references and, for a method of a boxed type,
	// those of every interface method it implements.
	readersOf := func(d surfaceDecl) []reader {
		rs := refs[d.obj]
		fn, ok := d.obj.(*types.Func)
		if !ok || d.recv == nil || !boxed[d.recv] {
			return rs
		}
		for _, im := range ifaceMethods[fn.Name()] {
			iface := interfaceOf(im)
			if types.Implements(d.recv, iface) || types.Implements(types.NewPointer(d.recv), iface) {
				rs = append(rs, refs[im]...)
			}
		}
		return rs
	}

	var dead []string
	exempted := map[string]bool{}
	for _, d := range prog.surfaceDecls() {
		ok := false
		for _, r := range readersOf(d) {
			if !d.obj.Exported() || !r.test || r.dir != d.dir {
				ok = true
				break
			}
		}
		if _, exempt := surfaceExemptions[d.key]; exempt {
			exempted[d.key] = true
			if ok {
				t.Errorf("%s is exempted but has a reader: drop its exemption", d.key)
			}
			continue
		}
		if ok {
			continue
		}
		pos := prog.fset.Position(d.obj.Pos()).String()
		if d.obj.Exported() {
			dead = append(dead, pos+": "+d.key+" has no reader outside its own package's tests: delete it, or move it into a _test.go file")
		} else {
			dead = append(dead, pos+": "+d.key+" is never referenced: delete it")
		}
	}
	for key := range surfaceExemptions {
		if !exempted[key] {
			t.Errorf("%s is exempted but not declared: drop its exemption", key)
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Error(s)
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
