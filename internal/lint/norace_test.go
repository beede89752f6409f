package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLintPackagesCannotRace guards the Makefile's race target, which
// tests internal/lint and cmd/autolint without -race. That is sound only
// while neither package, tests included, can run two goroutines: no go
// statement, no t.Parallel, and no import of a module package other than
// the pair, whose goroutines would run inside their test binaries.
func TestLintPackagesCannotRace(t *testing.T) {
	const module = "autotune"
	for _, dir := range []string{".", filepath.Join("..", "..", "cmd", "autolint")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		fset := token.NewFileSet()
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				inModule := path == module || strings.HasPrefix(path, module+"/")
				if inModule && path != module+"/internal/lint" {
					t.Errorf("%s: imports %s; the race target would have to race this package", fset.Position(imp.Pos()), path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement; the race target would have to race this package", fset.Position(n.Pos()))
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Parallel" {
						t.Errorf("%s: Parallel call; the race target would have to race this package", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
}
