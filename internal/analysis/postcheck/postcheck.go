// Package postcheck flags silently dropped errors from the transport and
// comm layers' Post, Publish and Close calls. A posting that never reached
// the board is a liveness failure the protocol must react to, not ignore —
// a dropped error there turns a detectable network fault into silent
// divergence between the local view and the bulletin board.
//
// Only bare call statements are flagged. An explicit `_ =` (or `_, _ =`)
// assignment is a deliberate, reviewable opt-out and stays legal, as do
// `defer c.Close()` statements, whose error has no useful handler on most
// teardown paths.
package postcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"yosompc/internal/analysis"
)

// Analyzer is the postcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "postcheck",
	Doc:        "flag dropped errors from transport/board Post, Publish and Close calls",
	Directives: []string{"ignore"},
	Run:        run,
}

// checked names the methods whose errors must not be dropped.
var checked = map[string]bool{
	"Post":    true,
	"Publish": true,
	"Close":   true,
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Targets {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := pkg.Callee(call)
				if fn == nil || !checked[fn.Name()] {
					return true
				}
				if fn.Pkg() == nil || !transportPkg(fn.Pkg().Path()) {
					return true
				}
				if !returnsError(fn) {
					return true
				}
				pass.Reportf(call.Pos(), "error from %s.%s dropped; a failed board operation must be handled (assign it, or discard explicitly with _)",
					fn.Pkg().Name(), fn.Name())
				return true
			})
		}
	}
	return nil
}

func transportPkg(path string) bool {
	return path == "transport" || path == "comm" ||
		strings.HasSuffix(path, "/internal/transport") || strings.HasSuffix(path, "/internal/comm")
}

func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), types.Universe.Lookup("error").Type()) {
			return true
		}
	}
	return false
}
