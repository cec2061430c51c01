package pinnedloads

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/experiments"
)

// TestOneRunDescription holds the module to one of each mechanism a run's
// identity goes through, over the parsed source of every non-test file
// outside bench/ (its own module): one speckey.Spec literal (simrun's
// Run.spec), the sizing defaults applied in one function (simrun's
// Run.Resolve; constant declarations may re-export them), and one run
// assembly around core.New / core.NewBlank (simrun's Run.Simulate, plus the
// security tier's run-to-halt driver). A second copy of any of them is how
// Policy.Consistency once went missing from the Runner's keys.
func TestOneRunDescription(t *testing.T) {
	var specLiterals, builders []string
	fset := token.NewFileSet()
	parseSource(t, fset, func(path string, file *ast.File) {
		for _, decl := range file.Decls {
			gen, isGen := decl.(*ast.GenDecl)
			fn, isFn := decl.(*ast.FuncDecl)
			defaultsAllowed := isGen && gen.Tok == token.CONST ||
				isFn && path == "internal/simrun/simrun.go" && fn.Name.Name == "Resolve"
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if isSelector(n.Type, "speckey", "Spec") ||
						file.Name.Name == "speckey" && isIdent(n.Type, "Spec") {
						specLiterals = append(specLiterals, fset.Position(n.Pos()).String())
					}
				case *ast.SelectorExpr:
					if isSelector(n, "core", "New") || isSelector(n, "core", "NewBlank") {
						builders = append(builders, path)
					}
				case *ast.Ident:
					if (n.Name == "DefaultWarmup" || n.Name == "DefaultMeasure") && !defaultsAllowed {
						t.Errorf("%s: %s is read outside simrun's Run.Resolve, the one place a run's defaults are applied",
							fset.Position(n.Pos()), n.Name)
					}
				}
				return true
			})
		}
	})
	if len(specLiterals) != 1 || !strings.HasPrefix(specLiterals[0], "internal/simrun/simrun.go:") {
		t.Errorf("speckey.Spec literals at %v, want exactly one, in simrun's Run.spec: convert to a simrun.Run and call its Key",
			specLiterals)
	}
	for _, path := range builders {
		if path != "internal/simrun/simrun.go" && path != "internal/sectest/sectest.go" {
			t.Errorf("%s builds a machine with core.New/NewBlank: run it through simrun's Run.Simulate", path)
		}
	}
}

// TestEveryConfigFieldIsRead holds the run key to what changes a run. Every
// arch.Config field is part of every run's key, so each must be read by
// non-test code outside internal/arch, which declares, defaults and
// validates it, and outside Table 1's renderer (ArchTable), which prints it:
// a field only they read gives one simulation two keys. A selector counts as
// a read unless it names a called method.
func TestEveryConfigFieldIsRead(t *testing.T) {
	unread := map[string]bool{}
	cfg := reflect.TypeOf(arch.Config{})
	for i := range cfg.NumField() {
		unread[cfg.Field(i).Name] = true
	}
	parseSource(t, token.NewFileSet(), func(path string, file *ast.File) {
		if strings.HasPrefix(path, "internal/arch/") {
			return
		}
		calls := map[*ast.SelectorExpr]bool{}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && path == "internal/experiments/sections.go" && fn.Name.Name == "ArchTable" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						calls[sel] = true
					}
				case *ast.SelectorExpr:
					if !calls[n] {
						delete(unread, n.Sel.Name)
					}
				}
				return true
			})
		}
	})
	for _, name := range slices.Sorted(maps.Keys(unread)) {
		t.Errorf("arch.Config.%s is read only by internal/arch and Table 1: delete it, or it keys two runs of one simulation apart", name)
	}
}

// parseSource parses every non-test Go file outside bench/ (its own module)
// and hidden directories, and hands each to fn with its slash path.
func parseSource(t *testing.T, fset *token.FileSet, fn func(path string, file *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneExperimentSpelling holds the harness to one spelling of each
// experiment, over the parsed non-test source. In internal/experiments a run
// set exists only as what a body asked its query: runAll is called from
// sweep alone, and runReq — the pool's unit of work — is named only by the
// query that notes it, by sweep and by runAll, so no Run* function can keep
// a request list beside its rendering. In cmd/plbench the experiments are
// the catalog's: main.go ranges over it and calls no Run* function itself.
func TestOneExperimentSpelling(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("internal/experiments/*.go")
	if err != nil {
		t.Fatal(err)
	}
	sweeps := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
					name = star.X.(*ast.Ident).Name + "." + name
				}
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "runAll" && name != "sweep" {
						t.Errorf("%s: %s calls runAll: an experiment's run set is what its body asks sweep's query",
							fset.Position(n.Pos()), name)
					}
					if isIdent(n.Fun, "sweep") {
						sweeps++
					}
				case *ast.Ident:
					if n.Name == "runReq" && name != "query.run" && name != "sweep" && name != "Runner.runAll" {
						t.Errorf("%s: %s builds a request (runReq): ask the query for the run where it is rendered",
							fset.Position(n.Pos()), name)
					}
				}
				return true
			})
		}
	}
	if sweeps < 8 {
		t.Errorf("found %d sweep calls in internal/experiments, want the eight studies: the check has lost its subject", sweeps)
	}

	main, err := parser.ParseFile(fset, "cmd/plbench/main.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	loops := 0
	ast.Inspect(main, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if isIdent(n.X, "experiments") && strings.HasPrefix(n.Sel.Name, "Run") {
				t.Errorf("%s: cmd/plbench names experiments.%s: add a Catalog entry instead of a block",
					fset.Position(n.Pos()), n.Sel.Name)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" && isIdent(sel.X, "e") {
				loops++
			}
		}
		return true
	})
	if loops != 1 {
		t.Errorf("cmd/plbench/main.go runs catalog entries at %d sites, want one dispatch loop", loops)
	}
}

// TestDESIGNIndexesTheCatalog holds DESIGN.md §4's regeneration column to
// the catalog, both ways: every entry's plbench selector appears there, and
// every plbench selector written there names an entry.
func TestDESIGNIndexesTheCatalog(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, _ := strings.Cut(string(design), "\n## 4. ")
	index, _, _ = strings.Cut(index, "\n## 5. ")
	known := map[string]bool{}
	for _, e := range experiments.Catalog {
		selector := strings.TrimSpace("plbench -" + e.Kind + " " + e.ID)
		known[selector] = true
		if !strings.Contains(index, "`"+selector+"`") {
			t.Errorf("DESIGN.md §4 has no regeneration target `%s`", selector)
		}
	}
	for _, m := range regexp.MustCompile("`(plbench -[^`]*)`").FindAllStringSubmatch(index, -1) {
		if !known[m[1]] {
			t.Errorf("DESIGN.md §4 names `%s`, which is no catalog entry", m[1])
		}
	}
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name && isIdent(sel.X, pkg)
}

// TestREADMEListsTheNameTables holds the README's flag table to the names
// defense.ParsePolicy accepts, row by row.
func TestREADMEListsTheNameTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range []string{defense.SchemeNames(), defense.VariantNames(),
		defense.ConsistencyNames(), defense.CondNames()} {
		if !strings.Contains(string(readme), "| "+names+" |") {
			t.Errorf("README.md's flag table has no row listing %q", names)
		}
	}
}
