// Package roleonce enforces the YOSO speak-once discipline statically: a
// role that has received the Spoke token is dead — its state is erased and
// any further protocol action through it is a bug the runtime only catches
// by panicking mid-protocol. The analyzer flags state-bearing uses of a
// yoso.Role after its Spoke() call (Post, SecretKey, a second Spoke) and
// of a yoso.Committee after SpeakAll, within the same function.
//
// The check is a lexical straight-line approximation: a use is "after" a
// kill when it appears later in the same function body. Loops that
// resurrect a variable across iterations are out of scope, and reads of
// public, erased-state-free accessors (Name, HasSpoken, PublicKey, the
// exported identity fields) stay legal after death — only the methods
// touching erased secret state or the board are flagged. Test files are
// skipped: tests legitimately provoke the runtime panic on purpose.
package roleonce

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"yosompc/internal/analysis"
)

// Analyzer is the roleonce analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "roleonce",
	Doc:        "flag uses of a YOSO role or committee after its Spoke/SpeakAll call in the same function",
	Directives: []string{"ignore"},
	Run:        run,
}

// killMethods maps a yoso type to the method that kills values of it.
var killMethods = map[string]string{
	"Role":      "Spoke",
	"Committee": "SpeakAll",
}

// deadMethods maps a yoso type to the methods illegal on a dead value.
var deadMethods = map[string]map[string]bool{
	"Role":      {"Post": true, "SecretKey": true, "Spoke": true},
	"Committee": {"SpeakAll": true},
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Targets {
		for _, fn := range pkg.Funcs() {
			if !fn.Test {
				checkFunc(pass, pkg, fn.Decl.Body)
			}
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, pkg *analysis.Package, body *ast.BlockStmt) {
	// First pass: record where each role/committee variable is killed.
	kills := map[types.Object]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj, typeName := receiverObject(pkg, call.Fun)
		if obj == nil {
			return true
		}
		sel := call.Fun.(*ast.SelectorExpr)
		if killMethods[typeName] != sel.Sel.Name {
			return true
		}
		if prev, ok := kills[obj]; !ok || call.Pos() < prev {
			kills[obj] = call.Pos()
		}
		return true
	})
	if len(kills) == 0 {
		return
	}
	// Second pass: flag state-bearing uses lexically after the kill.
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, typeName := receiverObject(pkg, sel)
		if obj == nil {
			return true
		}
		killPos, killed := kills[obj]
		if !killed || sel.Pos() <= killPos {
			return true
		}
		if !deadMethods[typeName][sel.Sel.Name] {
			return true
		}
		pass.Reportf(sel.Sel.Pos(), "%s.%s called after the %s spoke at line %d; a YOSO role speaks once and is then dead",
			obj.Name(), sel.Sel.Name, strings.ToLower(typeName), pass.Fset.Position(killPos).Line)
		return true
	})
}

// receiverObject resolves expr as a selector `ident.Method` whose ident is
// a variable of type yoso.Role or yoso.Committee (or pointer to one),
// returning the variable's object and the type name.
func receiverObject(pkg *analysis.Package, expr ast.Expr) (types.Object, string) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, ""
	}
	obj := pkg.Info.Uses[id]
	if obj == nil {
		return nil, ""
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return nil, ""
	}
	t := obj.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, ""
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return nil, ""
	}
	p := tn.Pkg().Path()
	if p != "yoso" && !strings.HasSuffix(p, "/internal/yoso") {
		return nil, ""
	}
	if _, ok := killMethods[tn.Name()]; !ok {
		return nil, ""
	}
	return obj, tn.Name()
}
