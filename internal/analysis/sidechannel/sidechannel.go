// Package sidechannel is the execution-trace hygiene analyzer of the
// yosolint suite: it flags secret material influencing what an observer of
// the execution trace can measure — which branch was taken, which memory
// was touched, how long a library call ran.
//
// A YOSO committee member's value lies in being unpredictable until it
// speaks; a secret-dependent branch, loop bound, or table index lets a
// co-located observer (cache timing, port contention) recover share bits
// before the role ever posts. The analyzer reuses secretflow's
// secret-source model — the builtin secret set plus //yosolint:secret
// annotations — and reports four sink classes:
//
//   - branch: a secret-tainted value decides an if/for/switch condition
//     (loop bounds included: conditions of counting loops are CFG control
//     expressions like any other);
//   - index: a secret-tainted value indexes a slice, array, map or string;
//   - compare: a secret flows into a variable-time comparison
//     (bytes.Equal, bytes.Compare, reflect.DeepEqual) — use
//     crypto/subtle.ConstantTimeCompare or crypto/hmac.Equal;
//   - bigint: a secret operand feeds a variable-time math/big operation
//     (Cmp, Div, Mod, Exp, ModInverse, GCD, …) outside the sanctioned
//     kernels.
//
// Sanctioned-call list: crypto/subtle and crypto/hmac consume secrets in
// constant time and are simply never classified as sinks; secretflow's
// sanitizers (Encrypt*, Prove*, modexp's exponentiation engine, crypto/*)
// launder their results here too, so branching on a ciphertext or a
// commitment stays silent. The `paillier`, `field`, and `modexp` kernel
// packages are sanctioned wholesale: field is branchless uint64
// arithmetic, while paillier and modexp are built on math/big and
// documented as variable-time at this layer — their internals are audited
// by hand, and their summaries carry no trace-sink facts, so callers are
// not flagged for using them.
//
// A finding that is acceptable — the compared value is already public at
// that point in the protocol, the timing variation is bounded and
// harmless — is acknowledged in place with `//yosolint:vartime <why>`; the
// justification is mandatory and preserved in -json/-sarif output.
// Analysis is interprocedural: a helper that branches on its parameter
// reports at every call site that passes a secret into it. Test files are
// exempt (a test comparing shares with reflect.DeepEqual is not a timing
// surface).
package sidechannel

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"yosompc/internal/analysis"
	"yosompc/internal/analysis/secretflow"
	"yosompc/internal/analysis/taint"
)

// Analyzer is the sidechannel analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "sidechannel",
	Doc:        "flag secret-dependent branches, memory indexing, and variable-time calls (timing/cache side channels)",
	Directives: []string{"vartime", "ignore"},
	Markers:    []string{"secret"},
	Run:        run,
}

func run(pass *analysis.Pass) error {
	eng := taint.NewEngine(taint.Config{
		SecretTypes:  secretflow.BuiltinSecretTypes,
		SecretFields: secretflow.BuiltinSecretFields,
		Sinks:        classifySink,
		Sanitizer:    secretflow.IsSanitizer,
		ControlSink:  controlSink,
		IndexSink:    indexSink,
	})
	for _, pkg := range pass.Packages {
		secretflow.MarkSecrets(eng, pkg)
	}
	for _, pkg := range pass.Packages {
		leaks := eng.AddPackage(pkg)
		if pkg.DepOnly {
			continue
		}
		for _, l := range leaks {
			if pkg.IsTestFile(l.Pos) {
				continue
			}
			pass.Reportf(l.Pos, "%s", message(l))
		}
	}
	return nil
}

// sanctioned reports packages whose internals are exempt from trace-sink
// classification: the modular-arithmetic kernels. field is branchless
// uint64 arithmetic; paillier is built on math/big and documented as
// variable-time at this layer; modexp is the engine package all
// variable-time big-int exponentiation was consolidated into — its
// package doc carries the one-way-function argument the per-site vartime
// directives used to repeat. Suppressing classification (rather than
// filtering reports) also keeps trace-sink facts out of their summaries,
// so callers are not flagged for using the sanctioned kernels.
func sanctioned(path string) bool {
	return analysis.PathHasSegment(path, "paillier") ||
		analysis.PathHasSegment(path, "field") ||
		analysis.PathHasSegment(path, "modexp")
}

// exempt reports positions where trace sinks are not classified at all:
// sanctioned kernel packages, external test packages, and _test.go files
// (whose helpers would otherwise contribute sink facts to summaries).
func exempt(pkg *analysis.Package, pos token.Pos) bool {
	if pkg.Types != nil {
		path := pkg.Types.Path()
		if sanctioned(path) || strings.HasSuffix(path, "_test") {
			return true
		}
	}
	return pkg.IsTestFile(pos)
}

// bigVartime maps variable-time *big.Int methods to the operand positions
// whose values drive the running time. Receivers that are pure
// destinations (z in z.Div(x, y)) are not operands; for comparisons the
// receiver is one.
var bigVartime = map[string]struct {
	args []int
	recv bool
}{
	"Cmp":        {args: []int{0}, recv: true},
	"CmpAbs":     {args: []int{0}, recv: true},
	"Div":        {args: []int{0, 1}},
	"Mod":        {args: []int{0, 1}},
	"DivMod":     {args: []int{0, 1}},
	"Quo":        {args: []int{0, 1}},
	"Rem":        {args: []int{0, 1}},
	"QuoRem":     {args: []int{0, 1}},
	"ModInverse": {args: []int{0, 1}},
	"ModSqrt":    {args: []int{0, 1}},
	"GCD":        {args: []int{2, 3}},
	"Exp":        {args: []int{0, 1}},
	"Sqrt":       {args: []int{0}},
}

// classifySink classifies variable-time calls. The constant-time
// alternatives (crypto/subtle, crypto/hmac) are sanctioned by not being
// listed.
func classifySink(pkg *analysis.Package, call *ast.CallExpr, fn *types.Func) *taint.Sink {
	if fn.Pkg() == nil || exempt(pkg, call.Pos()) {
		return nil
	}
	switch fn.Pkg().Path() {
	case "bytes":
		switch fn.Name() {
		case "Equal", "Compare":
			return &taint.Sink{Kind: "compare"}
		}
	case "reflect":
		if fn.Name() == "DeepEqual" {
			return &taint.Sink{Kind: "compare"}
		}
	case "math/big":
		if spec, ok := bigVartime[fn.Name()]; ok && recvIsBigInt(fn) {
			return &taint.Sink{Kind: "bigint", Args: spec.args, Recv: spec.recv}
		}
	}
	return nil
}

func recvIsBigInt(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Int"
}

// controlSink classifies a CFG control expression (if/for condition,
// switch tag, case expression): its atomic tests, minus the ones that
// cannot leak through timing, are checked for secret taint.
func controlSink(pkg *analysis.Package, cond ast.Expr) ([]ast.Expr, string) {
	if exempt(pkg, cond.Pos()) {
		return nil, ""
	}
	atoms := conditionAtoms(pkg, cond, nil)
	if len(atoms) == 0 {
		return nil, ""
	}
	return atoms, "branch"
}

// conditionAtoms decomposes the boolean structure of a condition (&&, ||,
// !, parens) into its atomic tests, dropping nil checks: whether a
// pointer is present is presence information, not the pointed-to value,
// and `if sh == nil` must not count as branching on the share.
func conditionAtoms(pkg *analysis.Package, e ast.Expr, out []ast.Expr) []ast.Expr {
	e = ast.Unparen(e)
	switch b := e.(type) {
	case *ast.BinaryExpr:
		switch b.Op {
		case token.LAND, token.LOR:
			out = conditionAtoms(pkg, b.X, out)
			return conditionAtoms(pkg, b.Y, out)
		case token.EQL, token.NEQ:
			if isNilExpr(pkg, b.X) || isNilExpr(pkg, b.Y) {
				return out
			}
		}
	case *ast.UnaryExpr:
		if b.Op == token.NOT {
			return conditionAtoms(pkg, b.X, out)
		}
	}
	return append(out, e)
}

func isNilExpr(pkg *analysis.Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.IsNil()
}

// indexSink classifies an index expression: the index operand of a real
// memory access (slice, array, map, string) is checked for secret taint.
func indexSink(pkg *analysis.Package, ix *ast.IndexExpr) ([]ast.Expr, string) {
	if exempt(pkg, ix.Pos()) {
		return nil, ""
	}
	// A generic instantiation parses as an IndexExpr too; only value
	// indexing is a memory access.
	if tv, ok := pkg.Info.Types[ix]; !ok || tv.IsType() {
		return nil, ""
	}
	t := pkg.Info.Types[ix.X].Type
	if t == nil {
		return nil, ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map:
	case *types.Basic:
		if t.Underlying().(*types.Basic).Info()&types.IsString == 0 {
			return nil, ""
		}
	default:
		return nil, ""
	}
	return []ast.Expr{ix.Index}, "index"
}

// message renders one leak. The sink kinds match the classifiers above;
// Via names the helper whose summary carried the secret to the sink.
func message(l taint.Leak) string {
	if l.Via != "" {
		switch l.Sink {
		case "branch":
			return fmt.Sprintf("secret value %s decides a branch inside %s (timing side channel)", l.Expr, l.ShortCallee())
		case "index":
			return fmt.Sprintf("secret value %s indexes memory inside %s (cache side channel)", l.Expr, l.ShortCallee())
		case "compare":
			return fmt.Sprintf("secret value %s reaches a variable-time comparison inside %s", l.Expr, l.ShortCallee())
		case "bigint":
			return fmt.Sprintf("secret value %s reaches a variable-time big.Int operation inside %s", l.Expr, l.ShortCallee())
		default:
			return fmt.Sprintf("secret value %s reaches a %s trace sink inside %s", l.Expr, l.Sink, l.ShortCallee())
		}
	}
	switch l.Sink {
	case "branch":
		return fmt.Sprintf("secret-dependent branch on %s (timing side channel)", l.Expr)
	case "index":
		return fmt.Sprintf("secret-dependent index %s (cache side channel)", l.Expr)
	case "compare":
		return fmt.Sprintf("secret value %s flows into variable-time %s (use crypto/subtle.ConstantTimeCompare or crypto/hmac.Equal)", l.Expr, l.ShortCallee())
	case "bigint":
		return fmt.Sprintf("secret value %s feeds variable-time big.Int operation %s outside the sanctioned kernels", l.Expr, l.ShortCallee())
	default:
		return fmt.Sprintf("secret value %s reaches %s trace sink %s", l.Expr, l.Sink, l.ShortCallee())
	}
}
