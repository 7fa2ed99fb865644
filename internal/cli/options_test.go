package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// unsetOptions lists the option fields no program writes and why each is
// allowed to stay. Anything else TestEveryOptionHasAWriter finds is an
// option nobody can turn: wire it to a front end or delete it.
var unsetOptions = map[string]string{
	"pmd.ResilientConfig.MaxRestarts": "safety code: the restart budget; every front end keeps the default of one per crash spec",
	"serve.Config.FaultInject":        "documented test hook: the soak tests inject attempt failures through it",
	"md.TuneOptions.Candidates":       "test seam: the tuner tests trial a short ladder",
	"figures.Config.FaultSpec":        "test seam: the cache-partition and failed-batch tests run a faulted suite",
}

// TestEveryOptionHasAWriter keeps options nothing sets from coming back:
// every exported field of a struct named *Config, *Options, *Opts or
// Watchdog under internal/ must be written somewhere in the non-test
// sources of internal/, cmd/, examples/ and benchmark/ — as a
// composite-literal key, by assignment, or through &x.Field handed to a
// flag. A field only tests set is a behaviour only tests run; the last two
// (md.Config.ConstrainHBonds and .Thermostat) were honoured by one of
// three step loops. serve.JobSpec is decoded from request JSON and is not
// an options struct by this rule.
func TestEveryOptionHasAWriter(t *testing.T) {
	g := loadGraph(t)

	// The option fields.
	options := map[*types.Var]string{}
	for path, pkg := range g.pkgs {
		if !strings.Contains(path, "/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") ||
				strings.HasSuffix(name, "Opts") || name == "Watchdog") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					options[f] = pkg.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	if len(options) < 50 {
		t.Fatalf("found %d option fields; the walk is broken", len(options))
	}

	// Their writers.
	written := map[*types.Var]bool{}
	field := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if s := g.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				written[s.Obj().(*types.Var)] = true
			}
		}
	}
	for _, f := range g.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					field(lhs)
				}
			case *ast.IncDecStmt:
				field(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					field(n.X)
				}
			case *ast.CompositeLit:
				st, ok := g.info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if v, ok := g.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							written[v] = true
						}
					} else {
						written[st.Field(i)] = true
					}
				}
			}
			return true
		})
	}

	var unset []string
	for f, name := range options {
		if !written[f] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	seen := map[string]bool{}
	for _, name := range unset {
		seen[name] = true
		if unsetOptions[name] == "" {
			t.Errorf("%s is an option no program sets: wire it to a front end or delete it", name)
		}
	}
	for name := range unsetOptions {
		if !seen[name] {
			t.Errorf("%s is on the allowlist but has a writer now (or is gone): drop the entry", name)
		}
	}
}

// repoGraph is the non-test package graph of internal/, cmd/, examples/
// and benchmark/, type-checked from source against the export data of the
// standard library, so one declaration is one object everywhere.
type repoGraph struct {
	info  *types.Info
	files []*ast.File
	pkgs  map[string]*types.Package // the repo's packages by import path
}

var (
	graphOnce sync.Once
	graph     *repoGraph
	graphErr  error
)

// loadGraph type-checks the graph once per test binary.
func loadGraph(t *testing.T) *repoGraph {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	graphOnce.Do(func() { graph, graphErr = buildGraph() })
	if graphErr != nil {
		t.Fatal(graphErr)
	}
	return graph
}

func buildGraph() (*repoGraph, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}

	// The package graph in dependency order, with the export data of the
	// standard library.
	list := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Export,Dir,Standard,GoFiles",
		"./internal/...", "./cmd/...", "./examples/...", "./benchmark/...")
	list.Dir = root
	var stderr bytes.Buffer
	list.Stderr = &stderr
	out, err := list.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	type listed struct {
		ImportPath, Export, Dir string
		Standard                bool
		GoFiles                 []string
	}
	var own []listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			own = append(own, p)
		}
	}

	fset := token.NewFileSet()
	imp := &repoImporter{
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
		own: map[string]*types.Package{},
	}
	g := &repoGraph{
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		},
		pkgs: imp.own,
	}
	for _, p := range own {
		var pkgFiles []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pkgFiles = append(pkgFiles, f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, pkgFiles, g.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		imp.own[p.ImportPath] = pkg
		g.files = append(g.files, pkgFiles...)
	}
	return g, nil
}

// repoImporter serves the repo's packages from the source-checked set and
// everything else from the standard library's export data.
type repoImporter struct {
	std types.Importer
	own map[string]*types.Package
}

func (m *repoImporter) Import(path string) (*types.Package, error) {
	if pkg := m.own[path]; pkg != nil {
		return pkg, nil
	}
	return m.std.Import(path)
}
