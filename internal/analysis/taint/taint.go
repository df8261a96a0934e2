// Package taint is the interprocedural dataflow layer of the analysis
// framework: a flow-insensitive value graph per function (built over the
// CFG-reachable statements from internal/analysis/cfg), combined with
// bottom-up call-graph summaries so taint crosses function and package
// boundaries without whole-program iteration.
//
// The engine is configured with a set of secret named types and struct
// fields (the sources), a sink classifier over resolved callees, and a
// sanitizer predicate (encryption, hashing, zero-knowledge proving). It
// consumes packages in dependency order — dependencies first, as
// `go list -deps` emits them — and for every function computes a summary:
// which results carry taint (always, or conditionally on which
// parameters), which parameters flow into a sink inside the callee, and
// which reference parameters are written with tainted data. Call sites
// instantiate the callee's summary with the concrete argument taint, so a
// secret share passed to a helper that eventually logs it is reported at
// the call, interprocedurally.
//
// Taint values form a small monotone lattice — a definite bit plus a set
// of "tainted if parameter i is tainted" bits — so the per-package
// fixpoint terminates. See docs/STATIC_ANALYSIS.md for the approximations
// (field-insensitive writes, interface dispatch, reflection).
package taint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"yosompc/internal/analysis"
	"yosompc/internal/analysis/cfg"
)

// Sink describes why a call argument position is a disclosure point.
type Sink struct {
	// Kind is a short category for messages: "log", "error", "post", …
	Kind string
	// Args are the call-argument indices that disclose their value; nil
	// means every argument.
	Args []int
	// Recv additionally checks the receiver expression of a method-call
	// sink (big.Int's `z.Cmp(x)` discloses timing about z as much as x;
	// the receiver is not part of Args).
	Recv bool
}

// Config parameterizes an Engine.
type Config struct {
	// SecretTypes are canonical keys ("pkgpath.TypeName") of named types
	// whose values are secret material.
	SecretTypes map[string]bool
	// SecretFields are canonical keys ("pkgpath.TypeName.FieldName") of
	// struct fields whose values are secret even though their type is
	// not (e.g. the field.Element payload of a Share).
	SecretFields map[string]bool
	// Sinks classifies a resolved callee at one call site as a
	// disclosure point; the call and package give access to argument
	// syntax and type information (e.g. to treat fmt.Fprintf as a sink
	// only when writing to os.Stdout/os.Stderr). May be nil (no sinks —
	// pure propagation).
	Sinks func(pkg *analysis.Package, call *ast.CallExpr, fn *types.Func) *Sink
	// Sanitizer reports callees whose results are clean regardless of
	// argument taint: encryption, commitment hashing, ZK proving. May be
	// nil.
	Sanitizer func(fn *types.Func) bool
	// ControlSink, when non-nil, classifies a control expression — an
	// if/for condition, switch tag, or case expression, which the CFG
	// records as a bare expression node — as an execution-trace sink. It
	// returns the subexpressions whose taint constitutes the leak (letting
	// the policy prune nil-checks and length tests) and the sink kind;
	// returning no expressions ignores the control expression. Taint that
	// is conditional on the enclosing function's parameters becomes a sink
	// fact in its summary, so a helper that branches on its argument
	// reports at every call site that passes a secret.
	ControlSink func(pkg *analysis.Package, cond ast.Expr) ([]ast.Expr, string)
	// IndexSink likewise classifies an index expression (e[i] over a
	// slice, array, map or string) as a memory-trace sink. The policy
	// returns the subexpressions to check (typically the index operand)
	// and the sink kind.
	IndexSink func(pkg *analysis.Package, ix *ast.IndexExpr) ([]ast.Expr, string)
}

// Leak is one concrete secret-to-sink flow.
type Leak struct {
	// Pos locates the sink call (or the call into the helper that
	// sinks).
	Pos token.Pos
	// Sink is the sink's kind ("log", "error", "post", "branch", …).
	Sink string
	// Callee is the full name of the called function; empty for non-call
	// trace sinks (branch conditions, index expressions).
	Callee string
	// Expr renders the tainted argument expression.
	Expr string
	// Via names the helper whose summary carried the taint to the sink,
	// empty for direct sinks.
	Via string
}

// ShortCallee is Callee with the module path noise stripped, for messages.
func (l Leak) ShortCallee() string {
	return strings.ReplaceAll(strings.ReplaceAll(l.Callee, "yosompc/internal/", ""), "yosompc/", "")
}

// taintVal is the lattice value: definitely tainted, and/or tainted
// whenever one of the marked parameters (bit i = param i, receiver first)
// is tainted at the call site.
type taintVal struct {
	always bool
	params uint64
}

func (v taintVal) union(w taintVal) taintVal {
	return taintVal{v.always || w.always, v.params | w.params}
}

func (v taintVal) zero() bool { return !v.always && v.params == 0 }

// summary is one function's interprocedural behavior.
type summary struct {
	// results[i] is the taint of result i.
	results []taintVal
	// sinks[i] is the sink kind parameter i reaches inside the callee
	// (transitively), "" when it reaches none.
	sinks map[int]string
	// writes[i] is the taint written through reference parameter i
	// (slices, maps, pointers) beyond its own incoming taint.
	writes map[int]taintVal
	// nparams is the parameter count including any receiver.
	nparams int
}

// Engine accumulates summaries and leaks across packages.
type Engine struct {
	cfg       Config
	secretsT  map[string]bool
	secretsF  map[string]bool
	summaries map[string]*summary
	// memoDirect caches isDirectSecret, memoCarry caches carriesSecret:
	// 0 unknown/in-progress, 1 secret, -1 clean.
	memoDirect map[types.Type]int8
	memoCarry  map[types.Type]int8
	leaks      []Leak
	leakSeen   map[leakKey]bool
}

type leakKey struct {
	pos  token.Pos
	sink string
	expr string
}

// NewEngine returns an Engine for one load's worth of packages.
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		cfg:        cfg,
		secretsT:   map[string]bool{},
		secretsF:   map[string]bool{},
		summaries:  map[string]*summary{},
		memoDirect: map[types.Type]int8{},
		memoCarry:  map[types.Type]int8{},
		leakSeen:   map[leakKey]bool{},
	}
	for k := range cfg.SecretTypes {
		e.secretsT[k] = true
	}
	for k := range cfg.SecretFields {
		e.secretsF[k] = true
	}
	return e
}

// MarkType adds a named type (key "pkgpath.TypeName") to the secret set.
func (e *Engine) MarkType(key string) {
	e.secretsT[key] = true
	e.invalidate()
}

// MarkField adds a struct field (key "pkgpath.TypeName.FieldName") to the
// secret set.
func (e *Engine) MarkField(key string) {
	e.secretsF[key] = true
	e.invalidate()
}

func (e *Engine) invalidate() {
	e.memoDirect = map[types.Type]int8{}
	e.memoCarry = map[types.Type]int8{}
}

// AddPackage analyzes one package: computes summaries for its functions
// and records the concrete leaks found in its bodies. Packages must be
// added dependencies-first; the leaks found in this package are returned
// (and also retained in the engine).
func (e *Engine) AddPackage(pkg *analysis.Package) []Leak {
	before := len(e.leaks)
	fns := pkg.Funcs()
	// Intra-package fixpoint: function bodies are re-walked until no
	// object taint, summary entry, or leak changes. The lattice is
	// finite and unions are monotone, so this terminates; the bound is a
	// backstop against bugs, not a semantic limit.
	st := &pkgState{
		engine: e,
		pkg:    pkg,
		obj:    map[types.Object]taintVal{},
	}
	for iter := 0; iter < 32; iter++ {
		st.changed = false
		for _, fn := range fns {
			st.analyzeFunc(fn)
		}
		if !st.changed {
			break
		}
	}
	return e.leaks[before:]
}

// Leaks returns every leak recorded so far, in discovery order.
func (e *Engine) Leaks() []Leak { return e.leaks }

// IsSecretType reports whether values of t ARE secret material under the
// engine's source configuration: a marked named type, or a container of
// one. Exported for sibling analyzers (zeroize, sidechannel) that reuse
// the secret-source model for their own policies.
func (e *Engine) IsSecretType(t types.Type) bool { return e.isDirectSecret(t) }

// CarriesSecret reports whether formatting or serializing a whole value
// of t can expose secret material: direct secrets plus structs with a
// secret (or marked) field, transitively.
func (e *Engine) CarriesSecret(t types.Type) bool { return e.carriesSecret(t) }

// TypeKey returns the canonical key of a named type or alias object.
func TypeKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// FuncKey returns the canonical key of a function or method: pkgpath.Name
// for functions, pkgpath.Recv.Name for methods.
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if name := analysis.RecvNamed(fn); name != "" {
		return fn.Pkg().Path() + "." + name + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// isDirectSecret reports whether values of t ARE secret material: a
// marked named type, or a container (pointer, slice, array, channel, map)
// of one. Struct types are direct secrets only when marked themselves —
// a struct that merely holds a secret field (the protocol driver's run
// state, an envelope) is "carrying", which matters at sinks but must not
// taint every use of the value (its public fields stay public).
func (e *Engine) isDirectSecret(t types.Type) bool {
	return e.classify(t, e.memoDirect, false)
}

// carriesSecret reports whether formatting/serializing a whole value of t
// can expose secret material: direct secrets plus structs with a secret
// (or marked) field, transitively.
func (e *Engine) carriesSecret(t types.Type) bool {
	return e.classify(t, e.memoCarry, true)
}

func (e *Engine) classify(t types.Type, memo map[types.Type]int8, structs bool) bool {
	if t == nil {
		return false
	}
	if v, ok := memo[t]; ok {
		return v == 1
	}
	memo[t] = 0 // in-progress: cycles resolve to clean
	secret := e.classifyUncached(t, memo, structs)
	if secret {
		memo[t] = 1
	} else {
		memo[t] = -1
	}
	return secret
}

func (e *Engine) classifyUncached(t types.Type, memo map[types.Type]int8, structs bool) bool {
	switch t := t.(type) {
	case *types.Named:
		if e.secretsT[TypeKey(t.Obj())] {
			return true
		}
		if s, ok := t.Underlying().(*types.Struct); ok {
			return structs && e.secretStruct(t.Obj(), s, memo)
		}
		return e.classify(t.Underlying(), memo, structs)
	case *types.Alias:
		return e.classify(types.Unalias(t), memo, structs)
	case *types.Pointer:
		return e.classify(t.Elem(), memo, structs)
	case *types.Slice:
		return e.classify(t.Elem(), memo, structs)
	case *types.Array:
		return e.classify(t.Elem(), memo, structs)
	case *types.Chan:
		return e.classify(t.Elem(), memo, structs)
	case *types.Map:
		return e.classify(t.Key(), memo, structs) || e.classify(t.Elem(), memo, structs)
	case *types.Struct:
		return structs && e.secretStruct(nil, t, memo)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if e.classify(t.At(i).Type(), memo, structs) {
				return true
			}
		}
	}
	return false
}

func (e *Engine) secretStruct(named types.Object, s *types.Struct, memo map[types.Type]int8) bool {
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		if named != nil && e.secretsF[TypeKey(named)+"."+f.Name()] {
			return true
		}
		if e.classify(f.Type(), memo, true) {
			return true
		}
	}
	return false
}

// typeHasMarkedField reports whether the named struct behind t has any
// //yosolint:secret-marked field — i.e. whether its annotation is
// field-granular (unmarked fields are then public by declaration).
func (e *Engine) typeHasMarkedField(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	s, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if e.secretsF[TypeKey(n.Obj())+"."+s.Field(i).Name()] {
			return true
		}
	}
	return false
}

// isSecretField reports whether selecting field f of the (named) type of
// base yields secret material because the field itself is marked.
func (e *Engine) isSecretField(baseType types.Type, f *types.Var) bool {
	t := baseType
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return e.secretsF[TypeKey(n.Obj())+"."+f.Name()]
}

// --- per-package analysis ---------------------------------------------

// pkgState is the per-package fixpoint state: object taint shared across
// the package's functions (covers package-level variables and closures).
type pkgState struct {
	engine  *Engine
	pkg     *analysis.Package
	obj     map[types.Object]taintVal
	changed bool
}

func (st *pkgState) setObj(o types.Object, v taintVal) {
	if o == nil || v.zero() {
		return
	}
	old := st.obj[o]
	merged := old.union(v)
	if merged != old {
		st.obj[o] = merged
		st.changed = true
	}
}

// fnScope is the view of one function under analysis.
type fnScope struct {
	st     *pkgState
	fn     *types.Func
	key    string
	params map[types.Object]int // param object -> bit index
	sum    *summary
}

func (st *pkgState) analyzeFunc(fn analysis.Func) {
	key := FuncKey(fn.Obj)
	sum := st.engine.summaries[key]
	sig := fn.Obj.Type().(*types.Signature)
	nparams := sig.Params().Len()
	if sig.Recv() != nil {
		nparams++
	}
	if sum == nil {
		sum = &summary{
			results: make([]taintVal, sig.Results().Len()),
			sinks:   map[int]string{},
			writes:  map[int]taintVal{},
			nparams: nparams,
		}
		st.engine.summaries[key] = sum
	}
	sc := &fnScope{st: st, fn: fn.Obj, key: key, params: map[types.Object]int{}, sum: sum}
	bit := 0
	if recv := sig.Recv(); recv != nil {
		sc.params[recv] = bit
		bit++
	}
	for i := 0; i < sig.Params().Len(); i++ {
		sc.params[sig.Params().At(i)] = bit
		bit++
	}
	sc.walkBody(fn.Decl.Body, sig)
}

// walkBody runs the value-graph pass over the CFG-reachable statements of
// one body (and, recursively, of the function literals it contains).
func (sc *fnScope) walkBody(body *ast.BlockStmt, sig *types.Signature) {
	g := cfg.New(body)
	for _, blk := range g.Reachable() {
		for _, n := range blk.Nodes {
			sc.node(n, sig)
		}
	}
}

// node processes one CFG node: statement-level edges plus a walk of the
// contained expressions for calls (sinks, mutation) and closures.
func (sc *fnScope) node(n ast.Node, sig *types.Signature) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		sc.assign(n.Lhs, n.Rhs)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					sc.assign(lhs, vs.Values)
				}
			}
		}
	case *ast.RangeStmt:
		src := sc.evalFlow(n.X)
		switch typeOf(sc.st.pkg, n.X).Underlying().(type) {
		case *types.Map, *types.Chan:
			sc.assignTo(n.Key, src)
		}
		sc.assignTo(n.Value, src)
	case *ast.SendStmt:
		var elem types.Type
		if ch, ok := typeOf(sc.st.pkg, n.Chan).Underlying().(*types.Chan); ok {
			elem = ch.Elem()
		}
		sc.writeTo(n.Chan, sc.bake(sc.evalFlow(n.Value), typeOf(sc.st.pkg, n.Value), elem))
	case *ast.ReturnStmt:
		if len(n.Results) == 1 && sig.Results().Len() > 1 {
			if call, ok := n.Results[0].(*ast.CallExpr); ok {
				for i, v := range sc.call(call) {
					if i < len(sc.sum.results) {
						sc.mergeResult(i, sc.bake(v, tupleAt(typeOf(sc.st.pkg, call), i), sig.Results().At(i).Type()))
					}
				}
				break
			}
		}
		for i, r := range n.Results {
			if i < len(sc.sum.results) {
				sc.mergeResult(i, sc.bake(sc.evalFlow(r), typeOf(sc.st.pkg, r), sig.Results().At(i).Type()))
			}
		}
	}
	// Control expressions reach the CFG as bare expression nodes; give the
	// policy a chance to classify them as execution-trace sinks.
	if e, ok := n.(ast.Expr); ok && sc.st.engine.cfg.ControlSink != nil {
		if exprs, kind := sc.st.engine.cfg.ControlSink(sc.st.pkg, e); kind != "" {
			for _, x := range exprs {
				sc.traceSink(x, sc.eval(x), kind)
			}
		}
	}
	// Named results assigned through their identifiers.
	if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 0 {
		for i := 0; i < sig.Results().Len(); i++ {
			if v, ok := sc.st.obj[sig.Results().At(i)]; ok {
				sc.mergeResult(i, v)
			}
		}
	}
	// Expression walk: every call gets sink/mutation treatment exactly
	// once (here), and closures get their own CFG walk.
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			sc.call(x)
		case *ast.IndexExpr:
			if sc.st.engine.cfg.IndexSink != nil {
				if exprs, kind := sc.st.engine.cfg.IndexSink(sc.st.pkg, x); kind != "" {
					for _, sub := range exprs {
						sc.traceSink(sub, sc.eval(sub), kind)
					}
				}
			}
		case *ast.FuncLit:
			lit := &fnScope{st: sc.st, fn: sc.fn, key: sc.key, params: sc.params, sum: sc.sum}
			// The closure's own returns do not feed the enclosing
			// function's results: give it a detached summary.
			litSig, _ := typeOf(sc.st.pkg, x).(*types.Signature)
			if litSig == nil {
				return false
			}
			lit.sum = &summary{results: make([]taintVal, litSig.Results().Len()), sinks: sc.sum.sinks, writes: sc.sum.writes, nparams: sc.sum.nparams}
			lit.walkBody(x.Body, litSig)
			return false
		}
		return true
	})
}

func (sc *fnScope) mergeResult(i int, v taintVal) {
	old := sc.sum.results[i]
	merged := old.union(v)
	if merged != old {
		sc.sum.results[i] = merged
		sc.st.changed = true
	}
}

func (sc *fnScope) assign(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		// Multi-value: a call, a map index, a receive, or a type
		// assertion. Calls get per-result precision; the rest apply the
		// single source value to every target.
		if call, ok := rhs[0].(*ast.CallExpr); ok {
			res := sc.call(call)
			rt := typeOf(sc.st.pkg, call)
			for i, l := range lhs {
				if i < len(res) {
					sc.store(l, res[i], tupleAt(rt, i))
				}
			}
			return
		}
		// Each target gets its own element of the recorded tuple type:
		// the comma-ok bool of a secret-map lookup carries the lookup's
		// flow taint but not the element type's secrecy — presence is not
		// the value.
		v := sc.evalFlow(rhs[0])
		rt := typeOf(sc.st.pkg, rhs[0])
		for i, l := range lhs {
			sc.store(l, v, tupleAt(rt, i))
		}
		return
	}
	for i := range lhs {
		if i < len(rhs) {
			sc.store(lhs[i], sc.evalFlow(rhs[i]), typeOf(sc.st.pkg, rhs[i]))
		}
	}
}

// store routes a value into an assignment target, first baking in the
// source's type-based secrecy when the target's type erases it. Variables
// hold only flow taint: a Share-typed local is not itself "tainted" — its
// type speaks at every use — so projecting its public Index stays clean.
// But assigning a secret-typed value into a wider type (any, interface)
// loses that type information, so the secrecy is baked into the stored
// flow value instead.
func (sc *fnScope) store(target ast.Expr, v taintVal, rhsType types.Type) {
	sc.assignTo(target, sc.bake(v, rhsType, typeOf(sc.st.pkg, target)))
}

// bake adds the definite-taint bit when a direct-secret-typed value lands
// in a location whose static type is not itself direct-secret.
func (sc *fnScope) bake(v taintVal, rhsType, lhsType types.Type) taintVal {
	if rhsType != nil && sc.st.engine.isDirectSecret(rhsType) && !sc.st.engine.isDirectSecret(lhsType) {
		v.always = true
	}
	return v
}

// assignTo routes a value into an assignment target. Writes through a
// selector or index taint the base object (field-insensitively).
func (sc *fnScope) assignTo(target ast.Expr, v taintVal) {
	if target == nil || v.zero() {
		return
	}
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		if o := sc.st.pkg.Info.ObjectOf(t); o != nil {
			sc.setObjOrParamWrite(o, v)
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		sc.writeTo(t, v)
	}
}

// writeTo taints the base object behind a write target expression.
func (sc *fnScope) writeTo(target ast.Expr, v taintVal) {
	if v.zero() {
		return
	}
	if o := sc.st.pkg.BaseObject(target); o != nil {
		sc.setObjOrParamWrite(o, v)
	}
}

// setObjOrParamWrite taints an object; writes into reference parameters
// are additionally recorded in the summary so call sites can taint the
// caller's argument.
func (sc *fnScope) setObjOrParamWrite(o types.Object, v taintVal) {
	sc.st.setObj(o, v)
	if bit, ok := sc.params[o]; ok && referenceType(o.Type()) {
		old := sc.sum.writes[bit]
		merged := old.union(v)
		if merged != old {
			sc.sum.writes[bit] = merged
			sc.st.changed = true
		}
	}
}

// eval computes the taint of an expression, including the contribution of
// its own type (a value of direct secret type is always tainted).
func (sc *fnScope) eval(e ast.Expr) taintVal {
	if e == nil {
		return taintVal{}
	}
	v := sc.evalFlow(e)
	if sc.st.engine.isDirectSecret(typeOf(sc.st.pkg, e)) {
		v.always = true
	}
	return v
}

// evalFlow computes the dataflow component of an expression's taint,
// without the expression's own type-based contribution. Selecting a
// public field (share.Index) from a value of secret type must stay clean;
// only the flow through the graph, marked fields, and secret-typed
// subexpressions propagate.
func (sc *fnScope) evalFlow(e ast.Expr) taintVal {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return sc.identTaint(e)
	case *ast.SelectorExpr:
		// Qualified package identifier?
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := sc.st.pkg.Info.Uses[id].(*types.PkgName); isPkg {
				return sc.identTaint(e.Sel)
			}
		}
		if sel, ok := sc.st.pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if f, ok := sel.Obj().(*types.Var); ok {
				baseT := typeOf(sc.st.pkg, e.X)
				if sc.st.engine.isSecretField(baseT, f) {
					return taintVal{always: true}
				}
				if sc.st.engine.isDirectSecret(f.Type()) {
					return taintVal{always: true}
				}
				if sc.st.engine.isDirectSecret(baseT) {
					// Selecting from a marked struct type: with
					// field-granular marks, unmarked fields are public by
					// declaration (Share.Index); with a whole-type mark
					// (paillier.PrivateKey) every field is secret.
					if sc.st.engine.typeHasMarkedField(baseT) {
						return taintVal{}
					}
					return taintVal{always: true}
				}
				if sc.st.engine.carriesSecret(baseT) {
					// The base struct carries secrets in specific other
					// fields (caught by their own types/marks); its flow
					// taint is field-insensitive, so selecting this
					// public-typed field stays clean.
					return taintVal{}
				}
			}
		}
		return sc.evalFlow(e.X)
	case *ast.IndexExpr:
		return sc.evalFlow(e.X)
	case *ast.SliceExpr:
		return sc.evalFlow(e.X)
	case *ast.StarExpr:
		return sc.evalFlow(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return sc.evalFlow(e.X)
		}
		return sc.eval(e.X)
	case *ast.BinaryExpr:
		return sc.eval(e.X).union(sc.eval(e.Y))
	case *ast.CallExpr:
		res := sc.call(e)
		var v taintVal
		for _, r := range res {
			v = v.union(r)
		}
		return v
	case *ast.CompositeLit:
		var v taintVal
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			v = v.union(sc.eval(el))
		}
		return v
	case *ast.TypeAssertExpr:
		v := sc.eval(e.X)
		// Narrowing drops the whole-value taint when the target type
		// re-declares the secrecy on its own terms: asserting a marked
		// interface (tte.SubShare) down to its concrete struct moves the
		// authority from the interface mark to the struct's marked value
		// fields — or to nothing, when the concrete type holds no secret
		// material (a simulation stub of indices and sizes). Without this
		// the interface taint sticks to the concrete value's public
		// fields field-insensitively.
		if t := typeOf(sc.st.pkg, e); t != nil && !sc.st.engine.isDirectSecret(t) {
			xt := typeOf(sc.st.pkg, e.X)
			if sc.st.engine.carriesSecret(t) ||
				(xt != nil && sc.st.engine.isDirectSecret(xt)) {
				return taintVal{}
			}
		}
		return v
	case *ast.FuncLit:
		return taintVal{}
	}
	return taintVal{}
}

func (sc *fnScope) identTaint(id *ast.Ident) taintVal {
	o := sc.st.pkg.Info.ObjectOf(id)
	if o == nil {
		return taintVal{}
	}
	v := sc.st.obj[o]
	if bit, ok := sc.params[o]; ok {
		v = v.union(taintVal{params: paramBit(bit)})
	}
	return v
}

func paramBit(i int) uint64 {
	if i > 63 {
		i = 63
	}
	return uint64(1) << uint(i)
}

// call processes a call expression: sink checks, summary instantiation,
// mutation-through-reference effects. It returns the taint of each
// result. Conversions and builtins are handled inline.
func (sc *fnScope) call(call *ast.CallExpr) []taintVal {
	pkg := sc.st.pkg
	// Type conversion: T(x) propagates x.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []taintVal{sc.eval(call.Args[0])}
		}
		return nil
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			return sc.builtin(b.Name(), call)
		}
	}
	fn := pkg.Callee(call)
	args := callArgs(pkg, call, fn)

	// Sink check: every listed argument position with concrete taint is
	// a leak; conditional taint becomes a sink fact about the enclosing
	// function's parameters. A sink consumes what it receives: the leak
	// is accounted exactly once, at the sink, so the call's results (the
	// error fmt.Errorf built, a board sequence number) come back clean
	// rather than re-reporting at every downstream use of the value.
	if fn != nil && sc.st.engine.cfg.Sinks != nil {
		if s := sc.st.engine.cfg.Sinks(pkg, call, fn); s != nil {
			idx := s.Args
			if idx == nil {
				idx = make([]int, len(call.Args))
				for i := range idx {
					idx[i] = i
				}
			}
			for _, i := range idx {
				if i < 0 || i >= len(call.Args) {
					continue
				}
				sc.sinkArg(call.Args[i], sc.eval(call.Args[i]), s.Kind, fn, "")
			}
			if s.Recv {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					sc.sinkArg(sel.X, sc.eval(sel.X), s.Kind, fn, "")
				}
			}
			return make([]taintVal, resultCount(fn))
		}
	}

	// A sanitized call (Encrypt, a hash, a ZK prover) still runs its
	// summary — a leak on the callee's error path must surface — but its
	// results come back clean.
	sanitized := fn != nil && sc.st.engine.cfg.Sanitizer != nil && sc.st.engine.cfg.Sanitizer(fn)

	if fn != nil {
		if sum, ok := sc.st.engine.summaries[FuncKey(fn)]; ok {
			res := sc.applySummary(call, fn, sum, args)
			if sanitized {
				return make([]taintVal, len(res))
			}
			return res
		}
	}
	if sanitized {
		return make([]taintVal, resultCount(fn))
	}

	// An in-package callee whose summary has not been computed yet this
	// fixpoint round is bottom (clean, no effects): the iteration
	// re-walks every body until summaries stabilize, so the conservative
	// model below is reserved for code the engine will never see. Without
	// this, a first-iteration pass over a caller analyzed before its
	// callee poisons the monotone summary maps with writes and sink facts
	// no later iteration can retract.
	if fn != nil && !isInterfaceMethod(fn) &&
		fn.Pkg() != nil && fn.Pkg() == pkg.Types {
		return make([]taintVal, resultCount(fn))
	}

	// Unknown callee (standard library, interface dispatch, function
	// values): default model. Dynamic interface methods do not propagate
	// their receiver into results — a secret KeyShare's Index() is an
	// int, not a secret — but static functions propagate every argument
	// to every result and may mutate reference arguments.
	dynamic := fn != nil && isInterfaceMethod(fn)
	argVals := make([]taintVal, len(args))
	var v taintVal
	for i, a := range args {
		if dynamic && i == 0 {
			continue
		}
		argVals[i] = sc.eval(a.expr)
		v = v.union(argVals[i])
	}
	if !v.zero() && fn != nil {
		// A mutating callee can move taint between its arguments, but
		// writing an argument's own taint back into itself is a no-op —
		// modelling it would taint the argument's base object (and so its
		// public siblings, field-insensitively) for free. An unknown
		// method's mutation lands in its receiver (the big.Int idiom:
		// z.Exp(x, y, m) writes z, never its operands); only a plain
		// function may scatter taint across any reference argument. A
		// call through a bare function value (fn == nil) gets no
		// write-back at all: it is almost always a local closure whose
		// body is walked in the enclosing scope, so its real effects are
		// already recorded, and the scatter model would only smear taint
		// across unrelated arguments.
		if method := len(args) == len(call.Args)+1; method {
			others := taintVal{}
			for _, av := range argVals[1:] {
				others = others.union(av)
			}
			if !others.zero() && referenceType(typeOf(pkg, args[0].expr)) {
				sc.writeTo(args[0].expr, others)
			}
		} else {
			for i, a := range args {
				others := taintVal{}
				for j := range args {
					if j != i {
						others = others.union(argVals[j])
					}
				}
				if !others.zero() && referenceType(typeOf(pkg, a.expr)) {
					sc.writeTo(a.expr, others)
				}
			}
		}
	}
	var results *types.Tuple
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			results = sig.Results()
		}
	} else if sig, ok := typeOf(pkg, call.Fun).Underlying().(*types.Signature); ok {
		results = sig.Results()
	}
	n := 1
	if results != nil {
		n = results.Len()
	}
	out := make([]taintVal, n)
	for i := range out {
		// An error result from an unseen callee stays clean: error
		// construction is the accountable sink, and every in-module
		// constructor is analyzed. Out-of-module formatting that folds an
		// operand into an error message is a documented blind spot —
		// tainting every err from every library call with a secret
		// argument would drown the signal.
		if results != nil && isErrorType(results.At(i).Type()) {
			continue
		}
		out[i] = v
	}
	return out
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// callArg pairs an argument expression with its parameter bit.
type callArg struct {
	expr ast.Expr
	bit  int
}

// callArgs aligns a call's receiver and arguments with parameter bits.
func callArgs(pkg *analysis.Package, call *ast.CallExpr, fn *types.Func) []callArg {
	var out []callArg
	bit := 0
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				out = append(out, callArg{sel.X, 0})
				bit = 1
			}
		}
	}
	for _, a := range call.Args {
		out = append(out, callArg{a, bit})
		bit++
	}
	return out
}

// applySummary instantiates a callee summary at a call site.
func (sc *fnScope) applySummary(call *ast.CallExpr, fn *types.Func, sum *summary, args []callArg) []taintVal {
	vals := make([]taintVal, sum.nparams)
	for _, a := range args {
		b := a.bit
		if b >= len(vals) {
			b = len(vals) - 1 // variadic tail
		}
		if b >= 0 {
			vals[b] = vals[b].union(sc.eval(a.expr))
		}
	}
	instantiate := func(dep taintVal) taintVal {
		out := taintVal{always: dep.always}
		for b := 0; b < len(vals); b++ {
			if dep.params&paramBit(b) != 0 {
				out = out.union(vals[b])
			}
		}
		return out
	}
	// Parameters that reach a sink inside the callee.
	for _, a := range args {
		b := a.bit
		if b >= len(vals) {
			b = len(vals) - 1
		}
		kind, ok := sum.sinks[b]
		if !ok {
			continue
		}
		sc.sinkArg(a.expr, sc.eval(a.expr), kind, fn, FuncKey(fn))
	}
	// Writes through reference parameters.
	for b, w := range sum.writes {
		inst := instantiate(w)
		if inst.zero() {
			continue
		}
		for _, a := range args {
			ab := a.bit
			if ab >= len(vals) {
				ab = len(vals) - 1
			}
			if ab == b && referenceType(typeOf(sc.st.pkg, a.expr)) {
				sc.writeTo(a.expr, inst)
			}
		}
	}
	out := make([]taintVal, len(sum.results))
	for i, r := range sum.results {
		out[i] = instantiate(r)
	}
	return out
}

// sinkArg records the consequence of a (possibly conditionally) tainted
// value meeting a sink: a concrete leak, or a sink fact on the enclosing
// function's parameters. At a direct sink, handing over a whole value
// whose type carries secret fields (a struct holding key shares) is a
// leak regardless of flow — formatting it prints the secret members.
func (sc *fnScope) sinkArg(arg ast.Expr, v taintVal, kind string, fn *types.Func, via string) {
	if via == "" && !v.always && sc.st.engine.carriesSecret(typeOf(sc.st.pkg, arg)) {
		v.always = true
	}
	if v.always {
		sc.st.engine.recordLeak(Leak{
			Pos:    arg.Pos(),
			Sink:   kind,
			Callee: fn.FullName(),
			Expr:   types.ExprString(arg),
			Via:    via,
		})
	}
	sc.sinkParams(v, kind)
}

// traceSink records a tainted value meeting a non-call sink (a branch
// condition, a memory index): a concrete leak when the taint is definite,
// and a sink fact on the enclosing function's parameters when conditional
// — so a helper that branches on its argument reports interprocedurally
// at each call site that passes a secret.
func (sc *fnScope) traceSink(arg ast.Expr, v taintVal, kind string) {
	if v.always {
		sc.st.engine.recordLeak(Leak{
			Pos:  arg.Pos(),
			Sink: kind,
			Expr: types.ExprString(arg),
		})
	}
	sc.sinkParams(v, kind)
}

// sinkParams registers "parameter b reaches a kind sink" facts in the
// enclosing function's summary.
func (sc *fnScope) sinkParams(v taintVal, kind string) {
	if v.params == 0 {
		return
	}
	for b := 0; b < sc.sum.nparams && b < 64; b++ {
		if v.params&paramBit(b) != 0 {
			if _, ok := sc.sum.sinks[b]; !ok {
				sc.sum.sinks[b] = kind
				sc.st.changed = true
			}
		}
	}
}

func (e *Engine) recordLeak(l Leak) {
	k := leakKey{l.Pos, l.Sink, l.Expr}
	if e.leakSeen[k] {
		return
	}
	e.leakSeen[k] = true
	e.leaks = append(e.leaks, l)
}

// builtin models the built-in functions.
func (sc *fnScope) builtin(name string, call *ast.CallExpr) []taintVal {
	switch name {
	case "append", "min", "max":
		var v taintVal
		for _, a := range call.Args {
			v = v.union(sc.eval(a))
		}
		return []taintVal{v}
	case "copy":
		if len(call.Args) == 2 {
			sc.writeTo(call.Args[0], sc.eval(call.Args[1]))
		}
		return []taintVal{{}}
	case "len", "cap", "new", "make", "delete", "clear", "close", "panic", "print", "println", "recover":
		return []taintVal{{}}
	}
	return []taintVal{{}}
}

// --- small helpers -----------------------------------------------------

func typeOf(pkg *analysis.Package, e ast.Expr) types.Type {
	if e == nil {
		return types.Typ[types.Invalid]
	}
	if tv, ok := pkg.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if o := pkg.Info.ObjectOf(id); o != nil {
			return o.Type()
		}
	}
	return types.Typ[types.Invalid]
}

// tupleAt returns element i of a tuple type, t itself for non-tuples at
// index 0, and nil otherwise.
func tupleAt(t types.Type, i int) types.Type {
	if tup, ok := t.(*types.Tuple); ok {
		if i < tup.Len() {
			return tup.At(i).Type()
		}
		return nil
	}
	if i == 0 {
		return t
	}
	return nil
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

func resultCount(fn *types.Func) int {
	if sig, ok := fn.Type().(*types.Signature); ok {
		return sig.Results().Len()
	}
	return 0
}

// referenceType reports whether writes through a value of type t are
// visible to other holders of the value.
func referenceType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}
