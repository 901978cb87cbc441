// The setter rule: every exported field of an option struct under
// internal/ is set by a command, the benchmark, a paper table or a
// library caller. A field nobody sets has one value in use, and that
// value is a constant. DESIGN.md §8, "Options", states the rule and
// who sets what stays.
package menos_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
	// A client chooses these in the adapter.Spec (menos.AdapterSpec) of
	// its Hello; split decodes the Spec and adapter converts it.
	"internal/adapter.LoRAConfig.Alpha":       "set from the adapter.Spec a client's Hello carries",
	"internal/adapter.LoRAConfig.Targets":     "set from the adapter.Spec a client's Hello carries",
	"internal/adapter.PrefixConfig.PrefixLen": "set from the adapter.Spec a client's Hello carries",
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
	dir, typ string
	field    *types.Var
}

func (f optionField) key() string { return f.dir + "." + f.typ + "." + f.field.Name() }

// TestEveryOptionHasASetter resolves every write to a field through
// go/types, on the program TestEveryExportHasAReader type-checks: a key
// in a composite literal, an assignment, an increment or an address-of
// sets exactly the field it denotes (a promoted field included), not
// every field of that name. A field counts as set when a non-test file
// outside its own package's directory (and outside examples/) writes
// it.
func TestEveryOptionHasASetter(t *testing.T) {
	prog := loadProgram(t)

	var fields []optionField
	for _, path := range sortedKeys(prog.pkgs) {
		sp := prog.pkgs[path]
		if !strings.HasPrefix(sp.dir, "internal/") {
			continue
		}
		scope := sp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !isOptionStruct(sp.dir, name) ||
				strings.HasSuffix(prog.fset.Position(tn.Pos()).Filename, "_test.go") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					fields = append(fields, optionField{sp.dir, name, f})
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("no option structs found under internal/")
	}

	setBy := map[types.Object][]string{} // field -> directories that write it
	for _, path := range sortedKeys(prog.pkgs) {
		sp := prog.pkgs[path]
		if sp.dir == "examples" || strings.HasPrefix(sp.dir, "examples/") {
			continue
		}
		for _, f := range sp.files {
			if strings.HasSuffix(prog.fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			collectSets(f, func(id *ast.Ident) {
				if obj := prog.info.Uses[id]; obj != nil {
					setBy[origin(obj)] = append(setBy[origin(obj)], sp.dir)
				}
			})
		}
	}
	isSet := func(fld optionField) bool {
		for _, dir := range setBy[fld.field] {
			if dir != fld.dir {
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
			unset = append(unset, prog.fset.Position(fld.field.Pos()).String()+": "+fld.key())
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

// collectSets reports the field identifier of every write in node: a
// key in a composite literal, and the selector of an assignment,
// increment or address-of x.F. Which object an identifier denotes is
// the type checker's business.
func collectSets(node ast.Node, set func(field *ast.Ident)) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set(id)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					set(sel.Sel)
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok {
				set(sel.Sel)
			}
		case *ast.UnaryExpr:
			if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
				set(sel.Sel)
			}
		}
		return true
	})
}
