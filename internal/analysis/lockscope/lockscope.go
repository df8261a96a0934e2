// Package lockscope is the lockset analyzer of the yosolint suite. For
// every function it computes, over the CFG from internal/analysis/cfg,
// the set of mutexes that must be held at each statement, and reports
//
//   - blocking operations performed while holding a lock: bulletin-board
//     posts and streams (transport Post/Tail/Dial), network and buffered
//     I/O, channel operations outside a select with default,
//     sync.WaitGroup waits, internal/parallel pool fan-outs, time.Sleep,
//     and modular exponentiation (the Paillier/TTE hot primitive);
//   - acquiring a lock that is already held (self-deadlock), directly or
//     through a callee; and
//   - inconsistent lock-acquisition order across the whole load: if one
//     function acquires B while holding A and another acquires A while
//     holding B, both sites are reported (lock-order inversion).
//
// The analysis is interprocedural in the style of internal/analysis/taint:
// packages are consumed dependencies-first and every function gets a
// bottom-up summary (may it block? which locks does it acquire,
// transitively?) that call sites instantiate, so holding a mutex across a
// helper that eventually flushes a TCP connection is reported at the call.
//
// Locks are identified by their owner's named type plus the selector path
// ("transport.Server.mu", "sharing.domainMu"), which matches the same
// logical lock across methods and packages. The lockset is a must-hold
// set (intersection at joins), so a lock released on any path to a
// statement no longer counts — the analyzer under-approximates holding to
// keep every report actionable.
//
// A deliberate block under a lock (a mutex that exists to serialize I/O
// on one connection) is acknowledged in place with
// `//yosolint:blocking <why>`; the justification is mandatory and the
// suppression shows up in cmd/yosolint -json output for audit.
package lockscope

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"yosompc/internal/analysis"
	"yosompc/internal/analysis/cfg"
	"yosompc/internal/analysis/taint"
)

// Analyzer is the lockscope analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "lockscope",
	Doc:        "flag blocking operations under a held mutex, self-deadlocks, and lock-order inversions",
	Directives: []string{"blocking", "ignore"},
	Run:        run,
}

// summary is one function's interprocedural locking behavior.
type summary struct {
	// mayBlock reports that the function can perform a blocking
	// operation, directly or through a callee.
	mayBlock bool
	// blockDesc describes the root blocking primitive for messages.
	blockDesc string
	// acquires are the lock keys the function (transitively) acquires.
	acquires map[string]bool
}

// edgeKey is one lock-order fact: acquired was locked while held was held.
type edgeKey struct{ held, acquired string }

// edgeSite is the first site establishing an edge; reportable sites (in a
// target package) are preferred so inversions surface where they can be
// fixed or justified.
type edgeSite struct {
	pos        token.Pos
	reportable bool
}

type engine struct {
	pass  *analysis.Pass
	sums  map[string]*summary
	edges map[edgeKey]*edgeSite
}

func run(pass *analysis.Pass) error {
	e := &engine{pass: pass, sums: map[string]*summary{}, edges: map[edgeKey]*edgeSite{}}
	for _, pkg := range pass.Packages {
		e.addPackage(pkg)
	}
	e.reportInversions()
	return nil
}

// addPackage converges the package's function summaries (bottom-up, with
// an intra-package fixpoint for mutual recursion), then re-walks each
// function once for reporting. Test files are skipped: tests hold locks
// across deliberate blocking tricks (barrier channels, raced posts) that
// the -race CI job covers instead.
func (e *engine) addPackage(pkg *analysis.Package) {
	if pkg.Types == nil {
		return
	}
	var fns []analysis.Func
	for _, fn := range pkg.Funcs() {
		if !fn.Test {
			fns = append(fns, fn)
		}
	}
	for iter := 0; iter < 32; iter++ {
		changed := false
		for _, fn := range fns {
			sc := &funcScope{engine: e, pkg: pkg}
			sc.analyze(fn.Obj, fn.Decl.Body, false)
			if sc.changed {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if pkg.DepOnly {
		// Summaries only: findings (and order edges) in dependency-context
		// packages belong to that package's own lint run.
		return
	}
	for _, fn := range fns {
		sc := &funcScope{engine: e, pkg: pkg}
		sc.analyze(fn.Obj, fn.Decl.Body, true)
	}
}

// funcScope analyzes one function (or function literal) body.
type funcScope struct {
	engine  *engine
	pkg     *analysis.Package
	report  bool
	changed bool
	// sum is the summary under construction; nil for function literals,
	// whose run time (goroutine, deferred, stored callback) is unknown, so
	// their behavior must not leak into the enclosing function's summary.
	sum *summary
	// nonBlockingComm marks the communication statements of selects that
	// have a default clause: they never block.
	nonBlockingComm map[ast.Node]bool
	// lits are the function literals found in the body, analyzed
	// separately with an empty entry lockset.
	lits []*ast.FuncLit
}

// lockset is the must-hold set of lock keys at a program point. top marks
// the not-yet-computed lattice element (identity for intersection).
type lockset struct {
	top  bool
	held map[string]bool
}

func (ls lockset) clone() lockset {
	out := lockset{held: map[string]bool{}}
	for k := range ls.held {
		out.held[k] = true
	}
	return out
}

// meet intersects two locksets (top is the identity).
func meet(a, b lockset) lockset {
	if a.top {
		return b.clone()
	}
	if b.top {
		return a.clone()
	}
	out := lockset{held: map[string]bool{}}
	for k := range a.held {
		if b.held[k] {
			out.held[k] = true
		}
	}
	return out
}

func (ls lockset) equal(o lockset) bool {
	if ls.top != o.top || len(ls.held) != len(o.held) {
		return false
	}
	for k := range ls.held {
		if !o.held[k] {
			return false
		}
	}
	return true
}

func (ls lockset) keys() string {
	keys := make([]string, 0, len(ls.held))
	for k := range ls.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " and ")
}

// analyze runs the lockset dataflow over one body. fn is nil for function
// literals. In summary mode (report=false) it grows fn's summary; in
// report mode it emits diagnostics and order edges from the converged
// locksets.
func (sc *funcScope) analyze(fn *types.Func, body *ast.BlockStmt, report bool) {
	sc.report = report
	if fn != nil {
		key := taint.FuncKey(fn)
		sum := sc.engine.sums[key]
		if sum == nil {
			sum = &summary{acquires: map[string]bool{}}
			sc.engine.sums[key] = sum
		}
		if !report {
			sc.sum = sum
		}
	}
	sc.nonBlockingComm = map[ast.Node]bool{}
	sc.lits = nil
	markNonBlockingComm(body, sc.nonBlockingComm)
	collectLits(body, &sc.lits)

	g := cfg.New(body)
	reach := g.Reachable()
	in := make([]lockset, len(g.Blocks))
	for i := range in {
		in[i] = lockset{top: true}
	}
	if len(g.Blocks) > 0 {
		in[0] = lockset{held: map[string]bool{}}
	}
	// Fixpoint: propagate must-hold sets until stable. The transfer
	// function only adds/removes keys, the meet only shrinks sets, and the
	// key universe is finite, so this terminates; the bound is a backstop.
	for iter := 0; iter < 64; iter++ {
		changed := false
		for _, blk := range reach {
			out := sc.transferBlock(blk, in[blk.Index], false)
			for _, s := range blk.Succs {
				merged := meet(in[s.Index], out)
				if !merged.equal(in[s.Index]) {
					in[s.Index] = merged
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	// Final pass over converged in-sets: summary growth and/or reporting.
	for _, blk := range reach {
		sc.transferBlock(blk, in[blk.Index], true)
	}
	// Function literals run with their own empty lockset, in report mode
	// only (their summaries are anonymous — a documented approximation).
	lits := sc.lits
	for _, lit := range lits {
		inner := &funcScope{engine: sc.engine, pkg: sc.pkg}
		inner.analyze(nil, lit.Body, report)
	}
}

// transferBlock applies the block's nodes to ls and returns the out-set.
// When act is true, summary/report side effects fire.
func (sc *funcScope) transferBlock(blk *cfg.Block, ls lockset, act bool) lockset {
	ls = ls.clone()
	for _, n := range blk.Nodes {
		sc.transferNode(n, &ls, act)
	}
	return ls
}

// transferNode walks one CFG node in evaluation order, adjusting the
// lockset at Lock/Unlock calls and (when act) reporting blocking
// operations and lock-order edges.
func (sc *funcScope) transferNode(n ast.Node, ls *lockset, act bool) {
	// A RangeStmt appears as a node of the block evaluating its operand,
	// while its body statements are separate nodes of the loop's body
	// blocks: walking only the operand avoids double-processing the body
	// under the wrong lockset.
	if rs, ok := n.(*ast.RangeStmt); ok {
		if rs.X != nil {
			sc.transferNode(rs.X, ls, act)
			if act && isChanType(sc.pkg, rs.X) {
				sc.blocked(rs.X.Pos(), "channel receive (range)", *ls)
			}
		}
		return
	}
	skipComm := sc.nonBlockingComm[n]
	switch s := n.(type) {
	case *ast.GoStmt:
		// The spawned goroutine starts with its own empty lockset; the
		// spawn itself never blocks. Argument expressions evaluate here.
		for _, a := range s.Call.Args {
			sc.transferNode(a, ls, act)
		}
		return
	case *ast.DeferStmt:
		// Deferred calls run during return, when the lockset at each exit
		// differs; modelling them here would mis-attribute. A deferred
		// Unlock deliberately keeps the lock held for the rest of the
		// body — exactly the defer-unwinding behavior we want.
		for _, a := range s.Call.Args {
			sc.transferNode(a, ls, act)
		}
		return
	case *ast.SendStmt:
		sc.transferNode(s.Chan, ls, act)
		sc.transferNode(s.Value, ls, act)
		if !skipComm && act {
			sc.blocked(s.Pos(), "channel send", *ls)
		}
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // analyzed separately with an empty lockset
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !skipComm && !sc.nonBlockingComm[x] && act {
				sc.blocked(x.Pos(), "channel receive", *ls)
			}
		case *ast.CallExpr:
			sc.call(x, ls, act)
		}
		return true
	})
}

// call handles one call site: lock-state transitions, blocking
// classification, and callee-summary instantiation.
func (sc *funcScope) call(call *ast.CallExpr, ls *lockset, act bool) {
	fn := sc.pkg.Callee(call)
	if fn == nil {
		return
	}
	if op := lockOp(fn); op != 0 {
		key := sc.receiverKey(call)
		if key == "" {
			return
		}
		switch op {
		case opLock:
			if act {
				if ls.held[key] {
					sc.reportf(call.Pos(), "acquires %s while already holding it (possible self-deadlock)", key)
				}
				for held := range ls.held {
					if held != key {
						sc.edge(held, key, call.Pos())
					}
				}
			}
			sc.acquire(key)
			ls.held[key] = true
		case opUnlock:
			delete(ls.held, key)
		}
		return
	}
	if desc := blockingPrimitive(fn); desc != "" {
		if act && len(ls.held) > 0 {
			sc.blocked(call.Pos(), desc, *ls)
		}
		sc.setBlock(desc)
		return
	}
	if sum, ok := sc.engine.sums[taint.FuncKey(fn)]; ok {
		if act {
			for acq := range sum.acquires {
				if ls.held[acq] {
					sc.reportf(call.Pos(), "call to %s acquires %s, which is already held (possible self-deadlock)", analysis.ShortFunc(fn), acq)
					continue
				}
				for held := range ls.held {
					sc.edge(held, acq, call.Pos())
				}
			}
			if sum.mayBlock && len(ls.held) > 0 {
				sc.reportf(call.Pos(), "call to %s may block (%s) while holding %s", analysis.ShortFunc(fn), sum.blockDesc, ls.keys())
			}
		}
		for acq := range sum.acquires {
			sc.acquire(acq)
		}
		if sum.mayBlock {
			sc.setBlock(sum.blockDesc)
		}
	}
}

// blocked reports a direct blocking operation and records it in the
// summary.
func (sc *funcScope) blocked(pos token.Pos, desc string, ls lockset) {
	if len(ls.held) > 0 {
		sc.reportf(pos, "%s while holding %s", desc, ls.keys())
	}
	sc.setBlock(desc)
}

func (sc *funcScope) reportf(pos token.Pos, format string, args ...any) {
	if sc.report {
		sc.engine.pass.Reportf(pos, format, args...)
	}
}

func (sc *funcScope) setBlock(desc string) {
	if sc.sum == nil || sc.sum.mayBlock {
		return
	}
	sc.sum.mayBlock = true
	sc.sum.blockDesc = desc
	sc.changed = true
}

func (sc *funcScope) acquire(key string) {
	if sc.sum == nil || sc.sum.acquires[key] {
		return
	}
	sc.sum.acquires[key] = true
	sc.changed = true
}

// edge records one lock-order fact for the module-wide inversion check.
// Local locks are anonymous across functions, so they carry no order.
func (sc *funcScope) edge(held, acquired string, pos token.Pos) {
	if !sc.report || held == acquired ||
		strings.HasPrefix(held, "local ") || strings.HasPrefix(acquired, "local ") {
		return
	}
	k := edgeKey{held, acquired}
	site, ok := sc.engine.edges[k]
	if !ok {
		sc.engine.edges[k] = &edgeSite{pos: pos, reportable: true}
		return
	}
	if !site.reportable {
		site.pos, site.reportable = pos, true
	}
}

// reportInversions flags every pair of locks acquired in both orders.
func (e *engine) reportInversions() {
	var keys []edgeKey
	for k := range e.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].held != keys[j].held {
			return keys[i].held < keys[j].held
		}
		return keys[i].acquired < keys[j].acquired
	})
	for _, k := range keys {
		rev := edgeKey{k.acquired, k.held}
		other, ok := e.edges[rev]
		if !ok || k.held > k.acquired {
			continue // unpaired, or already handled from the other side
		}
		site := e.edges[k]
		e.reportPair(site, k, other)
		e.reportPair(other, rev, site)
	}
}

func (e *engine) reportPair(site *edgeSite, k edgeKey, other *edgeSite) {
	if !site.reportable {
		return
	}
	op := e.pass.Fset.Position(other.pos)
	e.pass.Reportf(site.pos,
		"acquires %s while holding %s, but %s acquires them in the opposite order (lock-order inversion)",
		k.acquired, k.held, fmt.Sprintf("%s:%d", op.Filename, op.Line))
}

// --- classification ----------------------------------------------------

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies sync.Mutex/RWMutex lock-state transitions. TryLock is
// not an acquisition for must-hold purposes (it may fail).
func lockOp(fn *types.Func) lockOpKind {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone
	}
	recv := analysis.RecvNamed(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return opNone
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return opLock
	case "Unlock", "RUnlock":
		return opUnlock
	}
	return opNone
}

// ioFuncs are the blocking entry points of the stdlib stream packages.
var ioFuncs = map[string]bool{
	"Read": true, "Write": true, "Flush": true, "ReadFull": true,
	"ReadAll": true, "WriteString": true, "Copy": true, "CopyN": true,
	"ReadByte": true, "ReadBytes": true, "ReadString": true, "ReadRune": true,
	"WriteByte": true, "WriteRune": true, "Accept": true, "Serve": true,
	"ListenAndServe": true, "Dial": true, "DialTimeout": true,
}

// boardFuncs are the publication/stream entry points of the repo's
// board-facing packages (same path convention as secretflow's sink rule).
var boardFuncs = map[string]bool{
	"Post": true, "Publish": true, "Broadcast": true, "Tail": true, "Dial": true,
}

// blockingPrimitive classifies a resolved callee as a known blocking
// operation, returning a description for messages ("" when not blocking).
func blockingPrimitive(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch path {
	case "sync":
		if name == "Wait" { // WaitGroup.Wait, Cond.Wait
			return "blocking wait (sync." + analysis.RecvNamed(fn) + ".Wait)"
		}
	case "time":
		if name == "Sleep" {
			return "sleep (time.Sleep)"
		}
	case "math/big":
		if name == "Exp" {
			return "modular exponentiation (big.Int.Exp)"
		}
	case "crypto/rand":
		if name == "Prime" {
			return "prime generation (crypto/rand.Prime)"
		}
	case "net", "bufio", "io", "net/http", "os":
		if ioFuncs[name] {
			return "stream I/O (" + analysis.ShortFunc(fn) + ")"
		}
	}
	if boardFuncs[name] && analysis.BoardPkg(path) {
		return "board post (" + analysis.ShortFunc(fn) + ")"
	}
	if analysis.PathHasSegment(path, "parallel") &&
		(name == "For" || name == "ForObserved" || name == "ForWorker") {
		return "worker-pool wait (parallel." + name + ")"
	}
	// The streaming halves of a wire codec write into live connections:
	// treat them as I/O wherever they are declared.
	if name == "WriteTo" || name == "ReadFrom" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Params().Len() == 1 {
			pt := sig.Params().At(0).Type().String()
			if pt == "io.Writer" || pt == "io.Reader" {
				return "stream I/O (" + analysis.ShortFunc(fn) + ")"
			}
		}
	}
	return ""
}

// --- lock identity ------------------------------------------------------

// receiverKey names the lock behind the receiver of a Lock/Unlock call.
func (sc *funcScope) receiverKey(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return sc.pkg.ExprKey(sel.X)
}

// isChanType reports whether e's static type is a channel.
func isChanType(pkg *analysis.Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// --- pre-passes ---------------------------------------------------------

// markNonBlockingComm records the communication statements of selects
// that have a default clause — those never block.
func markNonBlockingComm(body *ast.BlockStmt, out map[ast.Node]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				out[cc.Comm] = true
				// The receive expression inside an assignment comm clause
				// is visited as part of the statement walk: mark it too.
				ast.Inspect(cc.Comm, func(x ast.Node) bool {
					if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						out[u] = true
					}
					_, isLit := x.(*ast.FuncLit)
					return !isLit
				})
			}
		}
		return true
	})
}

// collectLits gathers the top-level function literals of a body; literals
// nested inside another literal are found when that literal is analyzed.
func collectLits(body *ast.BlockStmt, out *[]*ast.FuncLit) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			*out = append(*out, lit)
			return false
		}
		return true
	}
	for _, s := range body.List {
		ast.Inspect(s, walk)
	}
}
