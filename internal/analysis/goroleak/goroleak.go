// Package goroleak is the goroutine-lifecycle analyzer of the yosolint
// suite. Every `go` statement must carry a provable termination path —
// otherwise a protocol run at n ≈ 20 000 committee members turns each
// stray spawn into twenty thousand leaked stacks. The accepted evidence,
// any one of which clears a spawn:
//
//   - a sync.WaitGroup join: the body calls wg.Done (usually deferred) on
//     a WaitGroup that some function in the package Waits on;
//   - a context bound: the body checks ctx.Done() or ctx.Err();
//   - a close signal: the body receives from, selects on, or ranges over
//     a channel that the package closes, or whose type is receive-only
//     (<-chan E) — a receive-only channel is producer-owned, and the
//     producer's close ends the loop;
//   - a finite body: no loops and no known-nonterminating calls
//     (http.Serve and friends), so the goroutine runs to completion.
//
// Independently of lifetime, a `go` statement inside a loop without a
// WaitGroup join is an unbounded spawn: the bounded fan-out engine in
// internal/parallel is the one place allowed to mass-spawn, because its
// pool joins every worker before returning.
//
// Test files are skipped (the -race CI job owns test goroutine hygiene).
// A process-lifetime goroutine (a debug HTTP listener, a signal pump) is
// acknowledged in place with `//yosolint:daemon <why>`; the justification
// is mandatory and the suppression shows up in cmd/yosolint -json output.
//
// Blind spots, documented in docs/STATIC_ANALYSIS.md: evidence is
// syntactic (a Done on the wrong WaitGroup instance of the right type
// still counts), a finite body assumes its calls return, and receiving
// from a package-closed channel assumes the close is reachable.
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"yosompc/internal/analysis"
)

// Analyzer is the goroleak analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "goroleak",
	Doc:        "require a provable termination path for every goroutine; flag unbounded spawns outside internal/parallel",
	Directives: []string{"daemon", "ignore"},
	Run:        run,
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Targets {
		st := &state{pass: pass, pkg: pkg, bodies: map[*types.Func]*ast.FuncDecl{}}
		fns := pkg.Funcs()
		st.collectFacts(fns)
		for _, fn := range fns {
			if !fn.Test {
				st.walkFunc(fn.Decl.Body)
			}
		}
	}
	return nil
}

type state struct {
	pass *analysis.Pass
	pkg  *analysis.Package
	// closedKeys names the channels the package closes somewhere.
	closedKeys map[string]bool
	// waitKeys names the WaitGroups the package Waits on somewhere.
	waitKeys map[string]bool
	// bodies resolves same-package function objects to their declarations,
	// so `go s.handle(conn)` is analyzed like an inline literal.
	bodies map[*types.Func]*ast.FuncDecl
}

// collectFacts indexes package-wide close/Wait sites and function bodies.
// Test files contribute facts too: a Wait in a test joins goroutines the
// non-test code spawns only in exported-for-test paths — but spawns
// themselves are only checked in non-test files.
func (st *state) collectFacts(fns []analysis.Func) {
	st.closedKeys = map[string]bool{}
	st.waitKeys = map[string]bool{}
	for _, f := range st.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := st.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(call.Args) == 1 {
					if k := st.pkg.ExprKey(call.Args[0]); k != "" {
						st.closedKeys[k] = true
					}
				}
				return true
			}
			if fn := st.pkg.Callee(call); fn != nil && fn.Name() == "Wait" && isWaitGroup(fn) {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if k := st.pkg.ExprKey(sel.X); k != "" {
						st.waitKeys[k] = true
					}
				}
			}
			return true
		})
	}
	for _, fn := range fns {
		st.bodies[fn.Obj] = fn.Decl
	}
}

// walkFunc visits every go statement in a body (including inside function
// literals), tracking whether the spawn site is lexically inside a loop.
func (st *state) walkFunc(body *ast.BlockStmt) {
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.ForStmt:
				if x.Init != nil {
					walk(x.Init, inLoop)
				}
				if x.Cond != nil {
					walk(x.Cond, inLoop)
				}
				if x.Post != nil {
					walk(x.Post, inLoop)
				}
				walk(x.Body, true)
				return false
			case *ast.RangeStmt:
				if x.X != nil {
					walk(x.X, inLoop)
				}
				walk(x.Body, true)
				return false
			case *ast.GoStmt:
				st.checkSpawn(x, inLoop)
				// The spawned body's own nested go statements are not in a
				// loop of this function; walk them with a fresh context.
				if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, false)
				}
				for _, a := range x.Call.Args {
					walk(a, inLoop)
				}
				return false
			case *ast.FuncLit:
				// A literal's body runs whenever it is called — not
				// necessarily in this loop — but spawns inside it still
				// need their own evidence.
				walk(x.Body, false)
				return false
			}
			return true
		})
	}
	walk(body, false)
}

// checkSpawn applies the termination-evidence and bounded-spawn rules to
// one go statement.
func (st *state) checkSpawn(g *ast.GoStmt, inLoop bool) {
	body, calleeName := st.spawnBody(g.Call)
	if body == nil {
		st.pass.Reportf(g.Pos(),
			"goroutine has no provable termination path (cannot analyze callee %s)", calleeName)
		return
	}
	ev := st.evidence(body)
	if !ev.any() {
		st.pass.Reportf(g.Pos(),
			"goroutine has no provable termination path (no WaitGroup join, context check, closed-channel signal, or finite body)")
		return
	}
	if inLoop && !ev.wgJoin && !analysis.PathHasSegment(st.pkg.Types.Path(), "parallel") {
		st.pass.Reportf(g.Pos(),
			"unbounded goroutine spawn in a loop without a WaitGroup join (use internal/parallel for bounded fan-out)")
	}
}

// spawnBody resolves the body the goroutine will run: an inline literal,
// or a same-package function/method declaration. The fallback name feeds
// the cannot-analyze message.
func (st *state) spawnBody(call *ast.CallExpr) (*ast.BlockStmt, string) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body, "func literal"
	}
	if fn := st.pkg.Callee(call); fn != nil {
		if fd, ok := st.bodies[fn]; ok {
			return fd.Body, fn.Name()
		}
		return nil, analysis.ShortFunc(fn)
	}
	return nil, types.ExprString(call.Fun)
}

// spawnEvidence is the set of termination proofs found in a body.
type spawnEvidence struct {
	wgJoin    bool // wg.Done on a package-Waited WaitGroup
	ctxBound  bool // ctx.Done() / ctx.Err() checked
	closeSig  bool // receive/select/range on a closed or receive-only channel
	finite    bool // no loops, no known-nonterminating calls
	selectAll bool // `select {}`: blocks forever, voids finiteness
}

func (ev spawnEvidence) any() bool {
	return ev.wgJoin || ev.ctxBound || ev.closeSig || (ev.finite && !ev.selectAll)
}

// nonterminating are stdlib calls that never return in normal operation:
// a body that reaches one is a daemon, not a finite goroutine.
var nonterminating = map[string]bool{
	"Serve": true, "ListenAndServe": true, "ListenAndServeTLS": true, "ServeTLS": true,
}

// evidence scans a spawn body (whole subtree, nested literals included —
// a join or context check delegated to a helper closure still counts).
func (st *state) evidence(body *ast.BlockStmt) spawnEvidence {
	ev := spawnEvidence{finite: true}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			ev.finite = false
		case *ast.RangeStmt:
			ev.finite = false
			if x.X != nil && st.boundedChannel(x.X) {
				ev.closeSig = true
			}
		case *ast.SelectStmt:
			if len(x.Body.List) == 0 {
				ev.selectAll = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && st.boundedChannel(x.X) {
				ev.closeSig = true
			}
		case *ast.CallExpr:
			fn := st.pkg.Callee(x)
			if fn == nil {
				return true
			}
			switch {
			case fn.Name() == "Done" && isWaitGroup(fn):
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					if k := st.pkg.ExprKey(sel.X); k != "" && st.waitKeys[k] {
						ev.wgJoin = true
					}
				}
			case (fn.Name() == "Done" || fn.Name() == "Err") && isContext(fn):
				ev.ctxBound = true
			case nonterminating[fn.Name()] && isNetServe(fn):
				ev.finite = false
			}
		}
		return true
	})
	return ev
}

// boundedChannel reports whether receiving from e is bounded by a close
// the package performs, or by producer ownership (receive-only type).
func (st *state) boundedChannel(e ast.Expr) bool {
	tv, ok := st.pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	if ch.Dir() == types.RecvOnly {
		return true
	}
	k := st.pkg.ExprKey(e)
	return k != "" && st.closedKeys[k]
}

// --- classification helpers --------------------------------------------

func isWaitGroup(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync" && analysis.RecvNamed(fn) == "WaitGroup"
}

func isContext(fn *types.Func) bool {
	if fn.Pkg() != nil && fn.Pkg().Path() == "context" {
		return true
	}
	// ctx.Done() resolves to the context.Context interface method; a
	// custom context implementing it counts the same way.
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return sig.Recv().Type().String() == "context.Context"
}

func isNetServe(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "net/http", "net/rpc":
		return true
	}
	return false
}
