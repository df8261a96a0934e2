// Package zeroize is the secret-lifetime analyzer of the yosolint suite:
// a buffer of secret material created in a function must be wiped before
// the function exits, or its ownership must be documented.
//
// A YOSO role's future-corruption guarantee assumes the share is gone
// when the role has spoken; a coefficient vector or decrypted payload
// left for the garbage collector lingers in heap pages (and potentially
// core dumps and swap) long after the protocol moved on. The analyzer
// tracks a deliberately narrow obligation class so that a clean run means
// something:
//
//   - a fresh randomness buffer returned by a field.RandomVec-style
//     sampler (callee in a `field` package, name Random*/MustRandom*,
//     slice result), or
//   - the byte buffer returned by calling Bytes, Decrypt or AppendOpen
//     on a value of secret type (secretflow's secret model, built once per
//     load: the builtin set plus //yosolint:secret marks; AppendOpen's
//     is a reader's scratch for a whole quorum walk), or
//   - the buffer an append-style secret codec extends (BuiltinSourceFuncs:
//     the plaintext scratch a partial decryption or key sub-share is
//     encoded into before it is sealed),
//
// bound to a local variable, becomes an obligation. Walking the
// function's CFG, every path from the creation to an exit must hit a
// discharge first:
//
//   - a wipe: the builtin clear, or a call named Zeroize*/Wipe* taking
//     the buffer as receiver or argument — a defer'd wipe discharges
//     every exit path it dominates, so a defer placed after the creation
//     covers early returns while a defer inside one branch does not;
//   - a transfer into a local container (append, element or field store)
//     — tracking ends there, a documented limitation;
//   - an error return propagating the creation's own err result (the
//     buffer never materialized);
//   - a terminating call (panic, os.Exit, log.Fatal*).
//
// Returning the buffer, storing it into a package-level variable, a
// parameter's field, or a channel moves it to a longer-lived owner: those
// sites are reported unless annotated `//yosolint:owner <why>`, which
// documents who wipes it. A source call whose result is never bound
// (`use(sk.Bytes())`) is reported too — an unnamed copy cannot be wiped.
//
// The analyzer runs on the crypto-bearing packages (core, committee,
// sharing, pke, paillier, tte, nizk, field, yoso); test files are exempt.
// Out of scope, documented: big.Int values (no reliable wipe exists — math/big
// reallocates internally), aliasing through plain assignment, and buffers
// captured by closures that outlive the function.
package zeroize

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"yosompc/internal/analysis"
	"yosompc/internal/analysis/cfg"
	"yosompc/internal/analysis/secretflow"
	"yosompc/internal/analysis/taint"
)

// Analyzer is the zeroize analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "zeroize",
	Doc:        "secret buffers must be wiped before leaving scope: flag unwiped drops, undocumented owner transfers, and captures",
	Directives: []string{"owner", "ignore"},
	Markers:    []string{"secret"},
	Run:        run,
}

// BuiltinSourceFuncs are the append-style codecs whose result holds the
// plaintext encoding of secret material, keyed by taint.FuncKey
// (pkgpath.RecvType.Method). Protocol code reaches them through the
// tte.Codec interface. A sync test asserts each key still resolves to a real
// method.
var BuiltinSourceFuncs = map[string]bool{
	"yosompc/internal/tte.Codec.AppendPartial":  true,
	"yosompc/internal/tte.Codec.AppendSubShare": true,
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Targets {
		// External test packages pass the gate but hold only test files.
		if pkg.Types == nil || !analysis.CryptoBearing(pkg.Types.Path()) {
			continue
		}
		c := &checker{pass: pass, pkg: pkg, reported: map[token.Pos]bool{}}
		for _, fn := range pkg.Funcs() {
			if !fn.Test {
				c.funcBody(fn.Decl)
			}
		}
	}
	return nil
}

type checker struct {
	pass     *analysis.Pass
	pkg      *analysis.Package
	reported map[token.Pos]bool
}

func (c *checker) reportOnce(pos token.Pos, format string, args ...interface{}) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// obligation is one secret buffer bound to a local variable.
type obligation struct {
	obj types.Object // the bound local
	// errObj is the err result bound alongside the buffer; a return that
	// propagates it is the aborted-creation path, not a drop.
	errObj types.Object
	pos    token.Pos
	src    string // rendering of the source call, for messages
	block  int    // creation site in the CFG
	node   int
}

func (c *checker) funcBody(decl *ast.FuncDecl) {
	g := cfg.New(decl.Body)
	blocks := g.Reachable()

	// Pass 1: find obligations (bound sources) and note which source
	// calls got a binding.
	var obls []*obligation
	bound := map[*ast.CallExpr]bool{}
	for _, blk := range blocks {
		for ni, n := range blk.Nodes {
			lhs, rhs := assignParts(n)
			if len(rhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
			if !ok || !c.isSource(call) {
				continue
			}
			bound[call] = true
			ob := &obligation{pos: call.Pos(), src: types.ExprString(call.Fun), block: blk.Index, node: ni}
			if len(lhs) > 0 {
				ob.obj = localTarget(c.pkg, decl, lhs[0])
			}
			if len(lhs) == 2 {
				ob.errObj = localTarget(c.pkg, decl, lhs[1])
			}
			if ob.obj == nil {
				// Blank or non-local binding: an unnamed copy nobody can
				// wipe.
				c.reportOnce(call.Pos(), "secret buffer from %s is discarded without a wipeable binding (bind it to a local and clear it)", ob.src)
				continue
			}
			obls = append(obls, ob)
		}
	}

	// Pass 2: unbound source calls. Inside a return statement the result
	// is handed to the caller (ownership transfer, annotatable); anywhere
	// else the copy is unreachable the moment the statement ends.
	inReturn := map[*ast.CallExpr]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			// Only a call that is itself a result expression hands the
			// buffer to the caller; one nested as an argument is consumed
			// and the copy discarded.
			for _, r := range ret.Results {
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && c.isSource(call) {
					inReturn[call] = true
				}
			}
		}
		return true
	})
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || bound[call] || !c.isSource(call) {
			return true
		}
		if inReturn[call] {
			c.reportOnce(call.Pos(), "secret buffer from %s is returned without a documented owner (annotate with //yosolint:owner)", types.ExprString(call.Fun))
		} else {
			c.reportOnce(call.Pos(), "secret buffer from %s is discarded without a wipeable binding (bind it to a local and clear it)", types.ExprString(call.Fun))
		}
		return true
	})

	// Pass 3: path analysis per obligation.
	byIndex := map[int]*cfg.Block{}
	for _, blk := range blocks {
		byIndex[blk.Index] = blk
	}
	for _, ob := range obls {
		w := &walker{c: c, decl: decl, ob: ob, byIndex: byIndex, seen: map[int]bool{}}
		start := byIndex[ob.block]
		if start == nil {
			continue
		}
		if w.scan(start.Nodes[ob.node+1:]) == survived {
			for _, s := range start.Succs {
				w.walk(s)
			}
		}
		if w.dropped {
			c.reportOnce(ob.pos, "secret buffer %s (from %s) is not zeroized on every path to function exit (wipe it or defer a wipe after creation)", ob.obj.Name(), ob.src)
		}
	}
}

// walker explores the CFG from one obligation's creation site.
type walker struct {
	c       *checker
	decl    *ast.FuncDecl
	ob      *obligation
	byIndex map[int]*cfg.Block
	seen    map[int]bool
	dropped bool
}

type scanResult int

const (
	survived scanResult = iota // fell off the node list, keep walking
	stopped                    // discharged, terminated, or drop recorded
)

func (w *walker) walk(blk *cfg.Block) {
	if w.seen[blk.Index] {
		return
	}
	w.seen[blk.Index] = true
	if w.scan(blk.Nodes) == stopped {
		return
	}
	if len(blk.Succs) == 0 {
		// Falling off the end of the function is an exit like any other.
		w.dropped = true
		return
	}
	for _, s := range blk.Succs {
		w.walk(s)
	}
}

// scan classifies the nodes of (part of) one block in order.
func (w *walker) scan(nodes []ast.Node) scanResult {
	for _, n := range nodes {
		switch w.classify(n) {
		case actWipe, actTransfer, actReturnErr, actTerminate, actCapture, actReturnObj:
			// A capture or returned buffer was reported by classify;
			// ownership moved.
			return stopped
		case actReturnDrop:
			w.dropped = true
			return stopped
		}
	}
	return survived
}

type action int

const (
	actNone action = iota
	actWipe
	actTransfer
	actCapture
	actReturnObj
	actReturnErr
	actReturnDrop
	actTerminate
)

// classify decides what one CFG node means for the obligation. Wipes win
// over everything; then ownership moves; then exits.
func (w *walker) classify(n ast.Node) action {
	if w.wipes(n) {
		return actWipe
	}
	if ret, ok := n.(*ast.ReturnStmt); ok {
		// The buffer itself leaving as a result is an ownership transfer;
		// a result merely computed from it (checksum(buf)) still leaves
		// the buffer behind unwiped.
		for _, r := range ret.Results {
			if carriesObj(w.c.pkg, r, w.ob.obj) {
				w.c.reportOnce(ret.Pos(), "secret buffer %s is returned without a documented owner (annotate with //yosolint:owner)", w.ob.obj.Name())
				return actReturnObj
			}
		}
		if w.ob.errObj != nil && mentionsObj(w.c.pkg, ret, w.ob.errObj) {
			return actReturnErr
		}
		return actReturnDrop
	}
	if act := w.moves(n); act != actNone {
		return act
	}
	if terminates(w.c.pkg, n) {
		return actTerminate
	}
	return actNone
}

// wipes reports whether the node wipes the obligation's buffer: the
// builtin clear, or a Zeroize*/Wipe* call taking it as receiver or
// argument (including inside a defer or a deferred closure).
func (w *walker) wipes(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := w.c.pkg.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "clear" {
				if len(call.Args) == 1 && isObjExpr(w.c.pkg, call.Args[0], w.ob.obj) {
					found = true
				}
				return true
			}
		}
		if !wipeName(calleeName(call)) {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isObjExpr(w.c.pkg, sel.X, w.ob.obj) {
			found = true
		}
		for _, a := range call.Args {
			if isObjExpr(w.c.pkg, a, w.ob.obj) {
				found = true
			}
		}
		return true
	})
	return found
}

func wipeName(name string) bool {
	return strings.HasPrefix(name, "Zeroize") || strings.HasPrefix(name, "Wipe") ||
		strings.HasPrefix(name, "zeroize") || strings.HasPrefix(name, "wipe")
}

func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// moves detects the buffer changing hands: stores into containers and
// channel sends. A store whose base is local keeps the secret in this
// frame (tracking ends, a documented limitation); a store reaching a
// package-level variable, a parameter, or a channel needs a documented
// owner.
func (w *walker) moves(n ast.Node) action {
	act := actNone
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for i, r := range x.Rhs {
				if !carriesObj(w.c.pkg, r, w.ob.obj) {
					continue
				}
				t := x.Lhs[0]
				if i < len(x.Lhs) {
					t = x.Lhs[i]
				}
				if w.longLived(t) {
					w.c.reportOnce(x.Pos(), "secret buffer %s is captured into a long-lived structure without a documented owner (//yosolint:owner)", w.ob.obj.Name())
					act = actCapture
				} else if act == actNone {
					act = actTransfer
				}
			}
		case *ast.SendStmt:
			if carriesObj(w.c.pkg, x.Value, w.ob.obj) {
				w.c.reportOnce(x.Pos(), "secret buffer %s is sent to a channel without a documented owner (//yosolint:owner)", w.ob.obj.Name())
				act = actCapture
			}
		}
		return true
	})
	return act
}

// longLived reports whether an assignment target outlives the function:
// a selector/index store whose base object is not declared inside the
// function body (package-level variables, parameters, receivers).
func (w *walker) longLived(target ast.Expr) bool {
	switch ast.Unparen(target).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return false
	}
	base := w.c.pkg.BaseObject(target)
	if base == nil {
		return false
	}
	body := w.decl.Body
	return base.Pos() < body.Pos() || base.Pos() > body.End()
}

// terminates reports calls that end the process: panic, os.Exit,
// log.Fatal*, runtime.Goexit. The path ends there; post-mortem memory is
// out of the model.
func terminates(pkg *analysis.Package, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch f := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if _, isBuiltin := pkg.Info.Uses[f].(*types.Builtin); isBuiltin && f.Name == "panic" {
				found = true
			}
		case *ast.SelectorExpr:
			if fn, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "os":
					if fn.Name() == "Exit" {
						found = true
					}
				case "log":
					if strings.HasPrefix(fn.Name(), "Fatal") || strings.HasPrefix(fn.Name(), "Panic") {
						found = true
					}
				case "runtime":
					if fn.Name() == "Goexit" {
						found = true
					}
				}
			}
		}
		return true
	})
	return found
}

// isSource reports whether a call creates a secret buffer: a field
// randomness sampler, Bytes/Decrypt/AppendOpen on a secret-typed
// receiver, or a builtin append-style secret codec, in every case returning
// a slice.
func (c *checker) isSource(call *ast.CallExpr) bool {
	fn := c.pkg.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 || !sliceLike(sig.Results().At(0).Type()) {
		return false
	}
	name := fn.Name()
	if sig.Recv() == nil {
		return analysis.PathHasSegment(fn.Pkg().Path(), "field") &&
			(strings.HasPrefix(name, "Random") || strings.HasPrefix(name, "MustRandom"))
	}
	if BuiltinSourceFuncs[taint.FuncKey(fn)] {
		return true
	}
	if name != "Bytes" && name != "Decrypt" && name != "AppendOpen" {
		return false
	}
	return secretflow.IsSecret(c.pass, sig.Recv().Type())
}

func sliceLike(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// --- small helpers ------------------------------------------------------

// assignParts extracts lhs/rhs from assignment-shaped nodes.
func assignParts(n ast.Node) (lhs, rhs []ast.Expr) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return n.Lhs, n.Rhs
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					for _, id := range vs.Names {
						lhs = append(lhs, id)
					}
					rhs = vs.Values
					return lhs, rhs
				}
			}
		}
	}
	return nil, nil
}

// localTarget resolves an assignment target to its object when it is a
// plain identifier declared inside the function body.
func localTarget(pkg *analysis.Package, decl *ast.FuncDecl, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	o := pkg.Info.ObjectOf(id)
	if o == nil {
		return nil
	}
	if o.Pos() < decl.Body.Pos() || o.Pos() > decl.Body.End() {
		return nil
	}
	return o
}

func isObjExpr(pkg *analysis.Package, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pkg.Info.Uses[id] == obj
}

// carriesObj reports whether evaluating the expression yields the
// obligation's buffer itself (or a view of it): the bare identifier, a
// reslice, an append over it, a composite literal or address-of
// embedding it. A call that merely consumes the buffer does not carry
// it.
func carriesObj(pkg *analysis.Package, e ast.Expr, obj types.Object) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[x] == obj
	case *ast.SliceExpr:
		return carriesObj(pkg, x.X, obj)
	case *ast.UnaryExpr:
		return carriesObj(pkg, x.X, obj)
	case *ast.CallExpr:
		id, ok := ast.Unparen(x.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin || id.Name != "append" {
			return false
		}
		for _, a := range x.Args {
			if carriesObj(pkg, a, obj) {
				return true
			}
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if carriesObj(pkg, el, obj) {
				return true
			}
		}
	}
	return false
}

// mentionsObj reports whether obj occurs anywhere in the return statement.
func mentionsObj(pkg *analysis.Package, ret *ast.ReturnStmt, obj types.Object) bool {
	found := false
	ast.Inspect(ret, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
