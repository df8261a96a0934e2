// Package fieldops flags raw arithmetic operators applied to field.Element
// values outside internal/field. Element's underlying type is uint64, so
// `a + b` compiles — and silently skips the modular reduction, producing a
// value outside [0, p) that corrupts every downstream interpolation. All
// arithmetic must go through the reduction-preserving API: field.Element's
// Add, Sub, Mul, Div and friends.
package fieldops

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"yosompc/internal/analysis"
)

// Analyzer is the fieldops analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "fieldops",
	Doc:        "forbid raw +,-,*,/,% on field.Element outside internal/field; use the reduction-preserving API",
	Directives: []string{"ignore"},
	Run:        run,
}

// method names the Element API replacement for each raw operator.
var method = map[token.Token]string{
	token.ADD: "Add",
	token.SUB: "Sub",
	token.MUL: "Mul",
	token.QUO: "Div",
	token.REM: "field.New to reduce",

	token.ADD_ASSIGN: "Add",
	token.SUB_ASSIGN: "Sub",
	token.MUL_ASSIGN: "Mul",
	token.QUO_ASSIGN: "Div",
	token.REM_ASSIGN: "field.New to reduce",
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Targets {
		if exempt(pkg.Types.Path()) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if fix, ok := method[n.Op]; ok && (isElement(pkg, n.X) || isElement(pkg, n.Y)) {
						pass.Reportf(n.OpPos, "raw %s on field.Element skips modular reduction; use %s", n.Op, fix)
					}
				case *ast.AssignStmt:
					if fix, ok := method[n.Tok]; ok && len(n.Lhs) == 1 && (isElement(pkg, n.Lhs[0]) || isElement(pkg, n.Rhs[0])) {
						pass.Reportf(n.TokPos, "raw %s on field.Element skips modular reduction; use %s", n.Tok, fix)
					}
				case *ast.IncDecStmt:
					if isElement(pkg, n.X) {
						pass.Reportf(n.TokPos, "raw %s on field.Element skips modular reduction; use Add/Sub", n.Tok)
					}
				}
				return true
			})
		}
	}
	return nil
}

// exempt reports whether path is the field package itself, the only place
// allowed to manipulate raw representations.
func exempt(path string) bool {
	return path == "field" || path == "field_test" || strings.HasSuffix(path, "/internal/field") || strings.HasSuffix(path, "/internal/field_test")
}

// isElement reports whether the expression's type is the named type
// field.Element.
func isElement(pkg *analysis.Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Element" || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == "field" || strings.HasSuffix(p, "/internal/field")
}
