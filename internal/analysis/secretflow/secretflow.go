// Package secretflow holds the yosolint suite's one secret model and the two
// policies checked against it. Secret material — Shamir shares, threshold
// key shares, partial decryptions, Paillier private keys — is tracked
// interprocedurally from its sources through assignments, helper calls,
// struct fields and channels, in one taint run per load, and each analyzer
// reports the sinks of its own policy:
//
//   - Analyzer (secretflow): disclosure sinks — logging, error
//     construction, a plaintext bulletin-board post, telemetry;
//   - SideChannel (sidechannel, sidechannel.go): execution-trace sinks —
//     secret-dependent branches, memory indexing, variable-time calls.
//
// Sources are the builtin secret set below plus any type or struct field
// annotated `//yosolint:secret <why>`; zeroize reads the same model through
// IsSecret. Encryption, hashing, zero-knowledge proving, and modular
// exponentiation are sanitizers for both policies: their results are clean,
// so the encrypt-then-post path stays silent. A reported flow that is an
// intentional disclosure (the protocol's output step, a simulation
// transcript) is acknowledged in place with `//yosolint:declassify <why>` —
// the justification is mandatory and the suppression is preserved in
// cmd/yosolint -json output for audit.
//
// The dataflow machinery lives in internal/analysis/taint (summaries,
// lattice) over internal/analysis/cfg (reachable statements); this package
// contributes only the YOSO-specific policy: what is secret, what
// discloses, what shapes the trace, what sanitizes. docs/STATIC_ANALYSIS.md
// documents both the model and its blind spots.
package secretflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"yosompc/internal/analysis"
	"yosompc/internal/analysis/taint"
)

// Analyzer is the secretflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "secretflow",
	Doc:        "track secret material interprocedurally; flag flows into logs, errors, and plaintext board posts",
	Directives: []string{"declassify", "ignore"},
	Markers:    []string{"secret"},
	Run:        func(pass *analysis.Pass) error { return report(pass, disclosure) },
}

// The engine's policies, indexing taint.Config.Policies and Leak.Policy.
const (
	disclosure = iota
	trace
)

// builtinSecretTypes are the canonical keys of the repo's well-known
// secret-material types, seeded without annotation so the analyzers guard
// them even if a refactor drops a comment. A sync test asserts each key
// still resolves to a real named type.
var builtinSecretTypes = map[string]bool{
	"yosompc/internal/sharing.Share":  true, // Shamir share (packed or plain)
	"yosompc/internal/tte.KeyShare":   true, // threshold key share
	"yosompc/internal/tte.PartialDec": true, // partial decryption (pre-threshold)
	"yosompc/internal/tte.SubShare":   true, // resharing sub-share of a key share
	"yosompc/internal/pke.SecretKey":  true, // role-addressed decryption key
}

// builtinSecretFields are field-granular builtin marks: the named field is
// secret while its siblings (indices, evaluation points, the embedded
// public key in paillier.PrivateKey) stay public.
var builtinSecretFields = map[string]bool{
	"yosompc/internal/sharing.Share.Value":        true,
	"yosompc/internal/paillier.PrivateKey.P":      true,
	"yosompc/internal/paillier.PrivateKey.Q":      true,
	"yosompc/internal/paillier.PrivateKey.Lambda": true,
	"yosompc/internal/paillier.PrivateKey.Mu":     true,
	"yosompc/internal/paillier.PrivateKey.M":      true,
}

type engineKey struct{}

type leaksKey struct{}

// policies are the two sink sets of the secret model.
var policies = []taint.Policy{
	disclosure: {Sinks: classifySink},
	trace:      {Sinks: classifyTraceCall, ControlSink: controlSink, IndexSink: indexSink},
}

// engine returns the load's secret model with both policies, built once
// per RunPackages.
func engine(pass *analysis.Pass) *taint.Engine {
	return analysis.Memo(pass, engineKey{}, func() *taint.Engine {
		return newEngine(pass.Packages, policies...)
	})
}

// newEngine seeds a taint engine with the builtin sources and every
// //yosolint:secret annotation of the whole load (dependency-only packages
// included), so the marks are in force before any body is analyzed.
func newEngine(pkgs []*analysis.Package, policies ...taint.Policy) *taint.Engine {
	eng := taint.NewEngine(taint.Config{
		SecretTypes:  builtinSecretTypes,
		SecretFields: builtinSecretFields,
		Sanitizer:    sanitizer,
		Policies:     policies,
	})
	for _, pkg := range pkgs {
		markSecrets(eng, pkg)
	}
	return eng
}

// IsSecret reports whether values of t are secret material — a secret
// named type or a container of one — under the load's secret model.
func IsSecret(pass *analysis.Pass, t types.Type) bool {
	return engine(pass).IsSecretType(t)
}

// leaks runs the taint fixpoint once per RunPackages and buckets the leaks
// of the target packages by policy. Packages are added in dependency
// order, dependencies first, so callee summaries exist before their call
// sites; leaks found in packages loaded only as context belong to that
// package's own lint run. Test files are exempt from the trace policy: its
// classifiers skip them, but a helper's sink fact still reaches a call
// site in a test.
func leaks(pass *analysis.Pass) [taint.MaxPolicies][]taint.Leak {
	return analysis.Memo(pass, leaksKey{}, func() (out [taint.MaxPolicies][]taint.Leak) {
		eng := engine(pass)
		for _, pkg := range pass.Packages {
			for _, l := range eng.AddPackage(pkg) {
				if !pkg.DepOnly && !(l.Policy == trace && pkg.IsTestFile(l.Pos)) {
					out[l.Policy] = append(out[l.Policy], l)
				}
			}
		}
		return out
	})
}

// report reports the load's leaks of one policy.
func report(pass *analysis.Pass, policy int) error {
	for _, l := range leaks(pass)[policy] {
		pass.Reportf(l.Pos, "%s", message(l))
	}
	return nil
}

// markSecrets registers the package's //yosolint:secret annotations: on a
// type declaration line the whole type becomes secret material, on a
// struct field line just that field does.
func markSecrets(eng *taint.Engine, pkg *analysis.Package) {
	if pkg.Types == nil {
		return
	}
	path := pkg.Types.Path()
	for _, f := range pkg.Files {
		pos := pkg.Fset.Position(f.Pos())
		src := pkg.Sources[pos.Filename]
		lines := map[int]bool{}
		for _, d := range analysis.ParseDirectives(pkg.Fset, f, src) {
			if d.Name == "secret" {
				lines[d.Line] = true
			}
		}
		if len(lines) == 0 {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if lines[pkg.Fset.Position(ts.Pos()).Line] {
					eng.MarkType(path + "." + ts.Name.Name)
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					if !lines[pkg.Fset.Position(fld.Pos()).Line] {
						continue
					}
					for _, name := range fld.Names {
						eng.MarkField(path + "." + ts.Name.Name + "." + name.Name)
					}
				}
			}
		}
	}
}

// logFuncs are the disclosing functions/methods of package log (the
// package-level functions and *log.Logger methods share these names).
var logFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true,
	"Output": true,
}

// slogFuncs are the disclosing functions/methods of log/slog.
var slogFuncs = map[string]bool{
	"Debug": true, "DebugContext": true,
	"Info": true, "InfoContext": true,
	"Warn": true, "WarnContext": true,
	"Error": true, "ErrorContext": true,
	"Log": true, "LogAttrs": true,
}

// BuiltinSinkFuncs are method-granular builtin sinks, keyed by
// taint.FuncKey (pkgpath.RecvType.Method). Telemetry emitters are
// disclosure surfaces exactly like logs: span attributes, metric names
// and recorded samples end up in trace files, HTTP /metrics responses and
// stamped benchmark results that leave the trust boundary — secret
// material must never be used as a label or sample value. A sync test
// asserts each key still resolves to a real method.
var BuiltinSinkFuncs = map[string]string{
	"yosompc/internal/telemetry.Tracer.Start":       "trace",
	"yosompc/internal/telemetry.Span.Child":         "trace",
	"yosompc/internal/telemetry.Span.SetStr":        "trace",
	"yosompc/internal/telemetry.Span.SetInt":        "trace",
	"yosompc/internal/telemetry.Registry.Counter":   "metric",
	"yosompc/internal/telemetry.Registry.Gauge":     "metric",
	"yosompc/internal/telemetry.Registry.Histogram": "metric",
	"yosompc/internal/telemetry.Counter.Add":        "metric",
	"yosompc/internal/telemetry.Gauge.Set":          "metric",
	"yosompc/internal/telemetry.Gauge.Max":          "metric",
	"yosompc/internal/telemetry.Histogram.Observe":  "metric",
}

// classifySink decides whether one resolved callee at one call site is a
// disclosure point, and which arguments it discloses.
func classifySink(pkg *analysis.Package, call *ast.CallExpr, fn *types.Func) *taint.Sink {
	if fn.Pkg() == nil {
		return nil
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	switch path {
	case "log":
		if logFuncs[name] {
			return &taint.Sink{Kind: "log"}
		}
	case "log/slog":
		if slogFuncs[name] {
			return &taint.Sink{Kind: "log"}
		}
	case "errors":
		if name == "New" {
			return &taint.Sink{Kind: "error"}
		}
	case "fmt":
		switch name {
		case "Errorf":
			return &taint.Sink{Kind: "error"}
		case "Print", "Printf", "Println":
			return &taint.Sink{Kind: "log"}
		case "Fprint", "Fprintf", "Fprintln":
			// A write to an arbitrary io.Writer may be a file or a hash;
			// only the process's standard streams are disclosure.
			if len(call.Args) > 0 && isStdStream(pkg, call.Args[0]) {
				idx := make([]int, 0, len(call.Args)-1)
				for i := 1; i < len(call.Args); i++ {
					idx = append(idx, i)
				}
				return &taint.Sink{Kind: "log", Args: idx}
			}
		}
	}
	// Bulletin-board publication: everyone-sees-everything by definition.
	// Material must be encrypted (sanitized) before it is handed to the
	// board or a role's posting helper.
	if (name == "Post" || name == "Publish" || name == "Broadcast") && analysis.BoardPkg(path) {
		return &taint.Sink{Kind: "post"}
	}
	if kind, ok := BuiltinSinkFuncs[taint.FuncKey(fn)]; ok {
		return &taint.Sink{Kind: kind}
	}
	return nil
}

// isStdStream reports whether e is the selector os.Stdout or os.Stderr.
func isStdStream(pkg *analysis.Package, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
	return ok && v.Pkg() != nil && v.Pkg().Path() == "os" && (v.Name() == "Stdout" || v.Name() == "Stderr")
}

// sanitizer reports callees whose results are clean regardless of input:
// encryption in the crypto-bearing packages, the standard hash/crypto
// primitives, and zero-knowledge proving. Their summaries still run, so a
// leak on an error path inside a sanitizer is not masked.
func sanitizer(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	if path == "crypto" || strings.HasPrefix(path, "crypto/") {
		return true
	}
	// AppendEncrypt is pke's sealing (pke.Sealer) in its append form: what
	// it adds to the destination is the envelope, as clean as Encrypt's
	// result.
	if (strings.HasPrefix(name, "Encrypt") || name == "AppendEncrypt") &&
		(analysis.PathHasSegment(path, "pke") || analysis.PathHasSegment(path, "tte") || analysis.PathHasSegment(path, "paillier")) {
		return true
	}
	if analysis.PathHasSegment(path, "nizk") && (strings.Contains(name, "Prove") || name == "Attest") {
		return true
	}
	// Modular exponentiation is a one-way function: g^x publishes a value
	// that hides x by the hardness of discrete log / factoring. The Shoup
	// verification keys v^(Δ·d_i), partial decryptions c^(2Δ·d_i), and
	// sigma-protocol commitments derive from secret exponents exactly this
	// way and are public by design. The modexp engine package is the
	// sanctioned home for these kernels (ExpSigned, MultiExp,
	// FixedBase.Exp), alongside paillier's CRT variant of the same
	// operation.
	if analysis.PathHasSegment(path, "modexp") && strings.Contains(name, "Exp") {
		return true
	}
	if name == "ExpSignedCRT" && analysis.PathHasSegment(path, "paillier") {
		return true
	}
	return false
}

// messages holds each sink kind's message formats, direct and inside a
// helper (Via set: the call into the helper is the reported site). Their
// arguments are the secret expression and the callee; the branch and index
// sinks have no callee, so their direct formats name argument 1 only.
var messages = map[string][2]string{
	"log":     {"secret value %s reaches logging sink %s", "secret value %s reaches a logging sink inside %s"},
	"error":   {"secret value %s is formatted into an error by %s", "secret value %s is formatted into an error inside %s"},
	"post":    {"secret value %s is posted to the board in plaintext by %s", "secret value %s is posted to the board in plaintext inside %s"},
	"metric":  {"secret value %s flows into metrics sink %s", "secret value %s flows into a metrics sink inside %s"},
	"trace":   {"secret value %s is recorded as a trace attribute by %s", "secret value %s is recorded as a trace attribute inside %s"},
	"branch":  {"secret-dependent branch on %[1]s (timing side channel)", "secret value %s decides a branch inside %s (timing side channel)"},
	"index":   {"secret-dependent index %[1]s (cache side channel)", "secret value %s indexes memory inside %s (cache side channel)"},
	"compare": {"secret value %s flows into variable-time %s (use crypto/subtle.ConstantTimeCompare or crypto/hmac.Equal)", "secret value %s reaches a variable-time comparison inside %s"},
	"bigint":  {"secret value %s feeds variable-time big.Int operation %s outside the sanctioned kernels", "secret value %s reaches a variable-time big.Int operation inside %s"},
}

func message(l taint.Leak) string {
	f := messages[l.Sink][0]
	if l.Via != "" {
		f = messages[l.Sink][1]
	}
	return fmt.Sprintf(f, l.Expr, l.ShortCallee())
}
