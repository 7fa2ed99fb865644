package cli

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// uncalledFuncs lists the exported functions and methods no program calls
// and why each is allowed to stay. Anything else
// TestEveryExportedFuncHasACaller finds is code only its tests run: delete
// it, or move it into the _test.go files of the package that uses it.
var uncalledFuncs = map[string]string{
	"fft.NewPlan3D":               "test oracle: ewald's complex reciprocal reference transforms through it, and the fft bits golden pins it",
	"fft.Plan3D.Forward":          "test oracle: ewald's complex reciprocal reference transforms through it, and the fft bits golden pins it",
	"fft.Plan3D.Inverse":          "test oracle: ewald's complex reciprocal reference transforms through it, and the fft bits golden pins it",
	"ff.ForceField.Nonbonded":     "test oracle: the exact pair loop the table kernel is held to, and the ff bits golden pins it",
	"vec.MaxNormDiff":             "comparator: the md and pmd tests measure force and trajectory differences with it",
	"perf.Parse":                  "decoder: the profile tests read back what the encoders wrote",
	"obs.LoadManifest":            "decoder: the manifest tests of obs, cmd/mdrun and benchmark read back what the runs wrote",
	"recover.LostBreakdown.Total": "one side of the Lost identity TestLostConservation checks",
	"perf.Attribution.Sum":        "one side of the attribution identity compute+comm+wait+imbalance+recovery = wall",
	"fault.Scenario.DSL":          "renderer: the chaos fuzz targets print their reproducer through it, and FuzzParseSpec pins it as a fixed point",
}

// dynamicMethods are the methods the standard library finds by type
// assertion rather than through an interface a program names: fmt's
// Stringer and the errors package's Is, As and Unwrap.
var dynamicMethods = map[string]string{
	"String": "()(string)",
	"Is":     "(error)(bool)",
	"As":     "(any)(bool)",
	"Unwrap": "()(error)",
}

// TestEveryExportedFuncHasACaller keeps code only tests run from coming
// back: every exported function under internal/, and every exported
// method of a named type declared there, must be referenced by the
// non-test sources of internal/, cmd/, examples/ or benchmark/ outside its
// own body. A method also counts as called when its type satisfies an
// interface the programs use — one an expression, declaration or called
// signature of the graph has (error, sim.Stepper, pmd's comms,
// cluster.FaultModel, http.Handler, ...) — or one of dynamicMethods.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	g := loadGraph(t)

	// The exported functions and methods.
	funcs := map[*types.Func]string{}
	for path, pkg := range g.pkgs {
		if !strings.Contains(path, "/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					funcs[obj] = pkg.Name() + "." + name
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						funcs[m] = pkg.Name() + "." + name + "." + m.Name()
					}
				}
			}
		}
	}
	if len(funcs) < 300 {
		t.Fatalf("found %d exported functions; the walk is broken", len(funcs))
	}

	// Their references, a function's own body aside.
	called := map[*types.Func]bool{}
	for _, f := range g.files {
		for _, decl := range f.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = g.info.Defs[fd.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := g.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
						called[fn.Origin()] = true
					}
				}
				return true
			})
		}
	}

	// The interfaces the programs use.
	ifaces := map[*types.Interface]bool{}
	seen := map[types.Type]bool{}
	var collect func(types.Type)
	collect = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Named:
			if it, ok := typ.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		case *types.Interface:
			ifaces[typ] = true
		case *types.Pointer:
			collect(typ.Elem())
		case *types.Slice:
			collect(typ.Elem())
		case *types.Array:
			collect(typ.Elem())
		case *types.Chan:
			collect(typ.Elem())
		case *types.Map:
			collect(typ.Key())
			collect(typ.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{typ.Params(), typ.Results()} {
				for i := 0; i < tup.Len(); i++ {
					collect(tup.At(i).Type())
				}
			}
		}
	}
	for _, tv := range g.info.Types {
		collect(tv.Type)
	}
	for _, objs := range []map[*ast.Ident]types.Object{g.info.Defs, g.info.Uses} {
		for _, obj := range objs {
			if obj != nil {
				collect(obj.Type())
			}
		}
	}
	satisfies := func(m *types.Func) bool {
		sig := m.Type().(*types.Signature)
		if dynamicMethods[m.Name()] == shape(sig) {
			return true
		}
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == m.Name() &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	var uncalled []string
	for fn, name := range funcs {
		if !called[fn] && (fn.Type().(*types.Signature).Recv() == nil || !satisfies(fn)) {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	listed := map[string]bool{}
	for _, name := range uncalled {
		listed[name] = true
		if uncalledFuncs[name] == "" {
			t.Errorf("%s has no caller outside tests: delete it or move it into the tests that use it", name)
		}
	}
	for name := range uncalledFuncs {
		if !listed[name] {
			t.Errorf("%s is on the allowlist but has a caller now (or is gone): drop the entry", name)
		}
	}
}

// shape renders a signature's parameter and result types without names,
// as "(error)(bool)".
func shape(sig *types.Signature) string {
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(tup.At(i).Type().String())
		}
		b.WriteByte(')')
	}
	return b.String()
}
