package secretflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"yosompc/internal/analysis"
	"yosompc/internal/analysis/taint"
)

// SideChannel is the sidechannel analyzer: the trace policy of the secret
// model. A YOSO committee member's value lies in being unpredictable until
// it speaks, and a co-located observer (cache timing, port contention)
// reads the execution trace long before the role posts, so secret material
// must not decide which branch is taken (branch: if/for/switch conditions,
// loop bounds included), which memory is touched (index: slice, array, map
// or string indexing), or how long a library call runs (compare:
// bytes.Equal, bytes.Compare, reflect.DeepEqual; bigint: variable-time
// math/big operations).
//
// crypto/subtle and crypto/hmac are constant time and never sinks; the
// shared sanitizers launder here too, so branching on a ciphertext stays
// silent. The `paillier`, `field` and `modexp` kernels are sanctioned
// wholesale (see exempt). An acceptable finding is acknowledged in place
// with `//yosolint:vartime <why>`; the justification is mandatory and kept
// in -json/-sarif output. Test files are exempt.
var SideChannel = &analysis.Analyzer{
	Name:       "sidechannel",
	Doc:        "flag secret-dependent branches, memory indexing, and variable-time calls (timing/cache side channels)",
	Directives: []string{"vartime", "ignore"},
	Markers:    []string{"secret"},
	Run:        func(pass *analysis.Pass) error { return report(pass, trace) },
}

// exempt reports positions where trace sinks are not classified at all:
// external test packages, _test.go files (whose helpers would otherwise
// contribute sink facts to summaries), and the sanctioned modular-arithmetic
// kernels. field is branchless uint64 arithmetic; paillier is built on
// math/big and documented as variable-time at this layer; modexp is the
// engine package all variable-time big-int exponentiation was consolidated
// into — its package doc carries the one-way-function argument. Suppressing
// classification (rather than filtering reports) also keeps trace-sink
// facts out of the kernels' summaries, so callers are not flagged for using
// them.
func exempt(pkg *analysis.Package, pos token.Pos) bool {
	if pkg.Types != nil {
		path := pkg.Types.Path()
		if strings.HasSuffix(path, "_test") || analysis.PathHasSegment(path, "paillier") ||
			analysis.PathHasSegment(path, "field") || analysis.PathHasSegment(path, "modexp") {
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

// classifyTraceCall classifies variable-time calls. The constant-time
// alternatives (crypto/subtle, crypto/hmac) are sanctioned by not being
// listed.
func classifyTraceCall(pkg *analysis.Package, call *ast.CallExpr, fn *types.Func) *taint.Sink {
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
		if spec, ok := bigVartime[fn.Name()]; ok && analysis.RecvNamed(fn) == "Int" {
			return &taint.Sink{Kind: "bigint", Args: spec.args, Recv: spec.recv}
		}
	}
	return nil
}

// controlSink classifies a CFG control expression (if/for condition,
// switch tag, case expression): its atomic tests, minus the ones that
// cannot leak through timing, are checked for secret taint.
func controlSink(pkg *analysis.Package, cond ast.Expr) ([]ast.Expr, string) {
	if exempt(pkg, cond.Pos()) {
		return nil, ""
	}
	return conditionAtoms(pkg, cond, nil), "branch"
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
