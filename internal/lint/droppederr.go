package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// stdlibErrFuncs are standard-library call names whose error result must
// not be blanked with `_ =`. The fmt print family is deliberately absent
// (its errors are conventionally ignored), as is strings.Builder's Write*
// set (documented to never fail).
var stdlibErrFuncs = map[string]bool{
	"Close": true, "Flush": true, "Sync": true,
	"Remove": true, "RemoveAll": true, "Mkdir": true, "MkdirAll": true,
	"Rename": true, "Truncate": true, "WriteFile": true,
	"Setenv": true, "Unsetenv": true, "Chdir": true,
}

// DroppedErr flags silently discarded errors in non-test code: bare
// expression statements calling a module function/method that returns an
// error, and all-blank assignments (`_ = f()`, `_, _ = g()`) of such
// calls. A deliberate discard stays, but annotated:
//
//	//autolint:ignore droppederr already failing; the close error is secondary
//	tmp.Close()
//
// Deferred calls (defer f.Close()) are exempt — the error has nowhere to
// go without a named-result wrapper, and requiring one everywhere is
// noise. Matching is by callee name against the module-wide index of
// error-returning declarations (plus a short stdlib list for the `_ =`
// form), since the linter runs without type information. Calls to Go
// builtins (close, delete, copy, ...) are never findings, whatever module
// methods share their names.
var DroppedErr = &Analyzer{
	Name: "droppederr",
	Doc:  "forbid unhandled error returns (bare calls and _ = discards) outside tests",
	Run: func(f *File) []Diagnostic {
		if f.IsTest {
			return nil
		}
		var out []Diagnostic
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, ok := s.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := callName(f, call)
				// Bare statements only flag unambiguous names: if any
				// module declaration of the same name returns no error
				// (e.g. the void Bandit.Update vs Hybrid.Update), the
				// name-based match cannot tell which one this call is.
				if name == "" || !f.Mod.ErrFuncs[name] || f.Mod.NoErrFuncs[name] {
					return true
				}
				out = append(out, f.Diag("droppederr", call.Pos(),
					fmt.Sprintf("result of %s is an error but the call is a bare statement", name),
					fmt.Sprintf("handle it: if err := %s(...); err != nil { ... }", name)))
			case *ast.AssignStmt:
				if !allBlank(s.Lhs) || len(s.Rhs) != 1 {
					return true
				}
				call, ok := s.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				name := callName(f, call)
				if name == "" || (!f.Mod.ErrFuncs[name] && !stdlibErrFuncs[name]) {
					return true
				}
				out = append(out, f.Diag("droppederr", s.Pos(),
					fmt.Sprintf("error from %s discarded with a blank assignment", name),
					"handle the error, or keep the discard with an //autolint:ignore droppederr <reason> explaining why it is safe"))
			}
			return true
		})
		return out
	},
}

// callName extracts the bare callee name from a call: the identifier for
// plain calls, the selector's field for qualified and method calls. A
// plain call to a Go builtin yields "": a module method named close makes
// "close" an error-returning name module-wide, but close(ch) resolves to
// the builtin unless the file's own package declares a function of that
// name.
func callName(f *File, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, builtin := types.Universe.Lookup(fun.Name).(*types.Builtin); builtin && !f.pkgDeclaresFunc(fun.Name) {
			return ""
		}
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// pkgDeclaresFunc reports whether any non-test file of f's package
// declares a package-level function called name.
func (f *File) pkgDeclaresFunc(name string) bool {
	for _, pkg := range f.Mod.Packages {
		if pkg.Path != f.PkgPath {
			continue
		}
		for _, pf := range pkg.Files {
			if pf.IsTest {
				continue
			}
			for _, decl := range pf.AST.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
					return true
				}
			}
		}
	}
	return false
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}
