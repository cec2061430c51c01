package pinnedloads

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pinnedloads/internal/defense"
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
		path = filepath.ToSlash(path)
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
