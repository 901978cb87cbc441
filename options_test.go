// The setter rule: every exported field of an option struct under
// internal/ is set by a command, the benchmark, a paper table or a
// library caller. A field nobody sets has one value in use, and that
// value is a constant. DESIGN.md §8, "Options", states the rule and
// who sets what stays.
package menos_test

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// optionStructs names the option structs that neither are called
// Config nor end in Config, keyed "<dir>.<Type>".
var optionStructs = map[string]bool{
	"internal/sched.SLO":             true,
	"internal/sched.BatchPolicy":     true,
	"internal/sched.Wiring":          true,
	"internal/experiments.Options":   true,
	"internal/splitsim.ClientSpec":   true,
	"internal/split.OptimizerConfig": false, // a frame payload, not an option
}

// optionExemptions names the fields kept without a setter, keyed
// "<dir>.<Type>.<Field>", each with its reason. An entry whose field
// gains a setter, or is no longer declared, fails the test.
var optionExemptions = map[string]string{
	"internal/splitsim.Config.GPUSpec":    "ROADMAP item 6(c)'s measured device profile sets it",
	"internal/splitsim.Config.ServerPerf": "ROADMAP item 6(c)'s measured device profile sets it",
}

// isOptionStruct reports whether the exported struct type <dir>.<name>
// under internal/ is an option struct.
func isOptionStruct(dir, name string) bool {
	if listed, ok := optionStructs[dir+"."+name]; ok {
		return listed
	}
	return name == "Config" || strings.HasSuffix(name, "Config")
}

// optionField is one exported field of an option struct.
type optionField struct {
	dir, typ, name string
	pos            token.Position
}

func (f optionField) key() string { return f.dir + "." + f.typ + "." + f.name }

func TestEveryOptionHasASetter(t *testing.T) {
	fset := token.NewFileSet()
	files := parseTree(t, fset)

	var fields []optionField
	aliases := map[string]string{} // "<dir>.<Alias>" -> "<dir>.<Type>"
	for _, f := range files {
		if f.test {
			continue
		}
		imports := moduleImports(f)
		for _, decl := range f.ast.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts := spec.(*ast.TypeSpec)
				if ts.Assign.IsValid() {
					if target := typeKey(ts.Type, f.dir, imports); target != "" {
						aliases[f.dir+"."+ts.Name.Name] = target
					}
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !strings.HasPrefix(f.dir, "internal/") || !ts.Name.IsExported() || !isOptionStruct(f.dir, ts.Name.Name) {
					continue
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.IsExported() {
							fields = append(fields, optionField{f.dir, ts.Name.Name, id.Name, fset.Position(id.Pos())})
						}
					}
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("no option structs found under internal/")
	}

	// Who sets what: literal keys by "<dir>.<Type>.<Field>", assignments
	// by field name alone. Each set records the directory it comes from.
	// A package that declares an option field F and assigns x.F is
	// defaulting its own field, so that assignment sets no other
	// package's F.
	declares := map[string]bool{} // "<dir>.<Field>"
	for _, fld := range fields {
		declares[fld.dir+"."+fld.name] = true
	}
	keyed := map[string][]string{}
	assigned := map[string][]string{}
	for _, f := range files {
		if f.test || f.dir == "examples" || strings.HasPrefix(f.dir, "examples/") {
			continue
		}
		imports := moduleImports(f)
		resolve := func(typ ast.Expr) string {
			key := typeKey(typ, f.dir, imports)
			if target, ok := aliases[key]; ok {
				return target
			}
			return key
		}
		collectSets(f.ast, resolve,
			func(typ, field string) { keyed[typ+"."+field] = append(keyed[typ+"."+field], f.dir) },
			func(field string) { assigned[field] = append(assigned[field], f.dir) })
	}
	isSet := func(fld optionField) bool {
		for _, dir := range keyed[fld.key()] {
			if dir != fld.dir {
				return true
			}
		}
		for _, dir := range assigned[fld.name] {
			if dir != fld.dir && !declares[dir+"."+fld.name] {
				return true
			}
		}
		return false
	}

	var unset []string
	exempted := map[string]bool{}
	for _, fld := range fields {
		ok := isSet(fld)
		if _, exempt := optionExemptions[fld.key()]; exempt {
			exempted[fld.key()] = true
			if ok {
				t.Errorf("%s is exempted but has a setter: drop its exemption", fld.key())
			}
			continue
		}
		if !ok {
			unset = append(unset, fld.pos.String()+": "+fld.key())
		}
	}
	for key := range optionExemptions {
		if !exempted[key] {
			t.Errorf("%s is exempted but not declared: drop its exemption", key)
		}
	}
	sort.Strings(unset)
	for _, s := range unset {
		t.Errorf("%s is set by no command, benchmark, experiment or caller outside its package: make its default a constant and delete the field", s)
	}
}

// moduleImports maps f's local import names to module directories.
func moduleImports(f surfaceFile) map[string]string {
	imports := map[string]string{}
	for _, spec := range f.ast.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		dir, ok := strings.CutPrefix(path, modulePath+"/")
		if !ok {
			if path != modulePath {
				continue
			}
			dir = "."
		}
		name := dir[strings.LastIndex(dir, "/")+1:]
		if dir == "." {
			name = modulePath
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = dir
	}
	return imports
}

// typeKey is "<dir>.<Type>" for a named type in this module, through
// any pointer, and "" for anything else.
func typeKey(typ ast.Expr, dir string, imports map[string]string) string {
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.Ident:
		return dir + "." + x.Name
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok {
			if d, ok := imports[pkg.Name]; ok {
				return d + "." + x.Sel.Name
			}
		}
	}
	return ""
}

// collectSets reports every field node writes: keyed(type, field) for
// a key in a composite literal of a named type (an element literal
// whose type is elided takes its container's element type), and
// assigned(field) for an assignment, increment or address-of x.F.
func collectSets(node ast.Node, resolve func(ast.Expr) string, keyed func(typ, field string), assigned func(field string)) {
	elided := map[*ast.CompositeLit]ast.Expr{}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			typ := n.Type
			if typ == nil {
				typ = elided[n]
			}
			var elem ast.Expr
			switch t := typ.(type) {
			case *ast.ArrayType:
				elem = t.Elt
			case *ast.MapType:
				elem = t.Value
			}
			key := ""
			if typ != nil {
				key = resolve(typ)
			}
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && key != "" && elem == nil {
						keyed(key, id.Name)
					}
					e = kv.Value
				}
				if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
					e = u.X
				}
				if lit, ok := e.(*ast.CompositeLit); ok && lit.Type == nil && elem != nil {
					elided[lit] = elem
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					assigned(sel.Sel.Name)
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok {
				assigned(sel.Sel.Name)
			}
		case *ast.UnaryExpr:
			if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
				assigned(sel.Sel.Name)
			}
		}
		return true
	})
}
