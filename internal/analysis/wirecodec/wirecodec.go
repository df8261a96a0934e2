// Package wirecodec is the wire-hygiene analyzer of the yosolint suite.
// Every type that crosses the bulletin board travels as bytes; the repo's
// discipline (docs/WIRE.md) is that such a type implements the binary-codec
// pair — MarshalBinary and UnmarshalBinary — plus an explicit EncodedSize
// model, and that its decoder is exercised by a fuzz target and its size
// model pinned by a test. This analyzer enforces all of it mechanically:
//
//   - a named type declaring MarshalBinary or UnmarshalBinary must
//     declare the pair (bytes nothing can decode are write-only);
//   - a pair type must declare EncodedSize() int — the byte-accounting
//     contract the server-verified wire experiment audits;
//   - a pair type must be referenced from some Fuzz* target in its
//     package's tests (in-package or external), so hostile bytes reach
//     its decoder; and
//   - a pair type's EncodedSize must be called somewhere in those tests,
//     pinning the size model against silent format drift.
//
// The stream halves (io.WriterTo/io.ReaderFrom) are required of no type:
// the repo has one stream reader, wire.ReadFrame, and every message is
// decoded from a frame's body, so a stream codec would have no caller.
//
// Independently, board publication calls (Post/Publish/Broadcast in the
// board-facing packages) must not be fed text dressed up as wire bytes: a
// []byte(string) conversion or fmt.Append* result as an argument is a
// codec-less payload and is reported at the call.
//
// The protocol drivers' step postings are the bytes a member's honest
// callback returns to committee.Speak, both what is posted and what is
// metered, and each reader decodes them with the step's public layout —
// they are no named types and are out of scope here. A type that is wire-
// adjacent but deliberately outside the discipline is acknowledged with
// `//yosolint:wireok <why>` on its declaration (or the offending call);
// the justification is mandatory and audited via cmd/yosolint -json.
package wirecodec

import (
	"go/ast"
	"go/types"
	"strings"

	"yosompc/internal/analysis"
	"yosompc/internal/analysis/taint"
)

// Analyzer is the wirecodec analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "wirecodec",
	Doc:        "require the MarshalBinary/UnmarshalBinary pair, a size model, a fuzz target, and a size-model test for every board-crossing type",
	Directives: []string{"wireok", "ignore"},
	Run:        run,
}

func run(pass *analysis.Pass) error {
	// Pass 1: collect test-side facts across the whole load. Test files
	// appear both merged into their package (in-package _test.go) and as
	// separate external test packages (path suffixed "_test"); the
	// filename suffix identifies them uniformly.
	fuzzRefs := map[string]bool{} // TypeKey -> referenced from a Fuzz* target
	sizePins := map[string]bool{} // TypeKey -> EncodedSize called in a test
	for _, pkg := range pass.Packages {
		collectTestFacts(pkg, fuzzRefs, sizePins)
	}
	// Pass 2: check wire types and board payloads of the target packages.
	for _, pkg := range pass.Targets {
		if strings.HasSuffix(pkg.Path, "_test") {
			continue
		}
		checkWireTypes(pass, pkg, fuzzRefs, sizePins)
		checkPayloads(pass, pkg)
	}
	return nil
}

// collectTestFacts scans a package's test files for fuzz-target type
// references and EncodedSize call sites.
func collectTestFacts(pkg *analysis.Package, fuzzRefs, sizePins map[string]bool) {
	if pkg.Info == nil {
		return
	}
	for _, fn := range pkg.Funcs() {
		if !fn.Test {
			continue
		}
		isFuzz := strings.HasPrefix(fn.Decl.Name.Name, "Fuzz")
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if !isFuzz {
					return true
				}
				if tn, ok := pkg.Info.Uses[x].(*types.TypeName); ok {
					if key := taint.TypeKey(tn); key != "" {
						fuzzRefs[key] = true
					}
				}
			case *ast.CallExpr:
				sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "EncodedSize" {
					return true
				}
				if tv, ok := pkg.Info.Types[sel.X]; ok && tv.Type != nil {
					if key := namedKey(tv.Type); key != "" {
						sizePins[key] = true
					}
				}
			}
			return true
		})
	}
}

// checkWireTypes applies the pair/fuzz/size rules to every named type
// the package declares in non-test files.
func checkWireTypes(pass *analysis.Pass, pkg *analysis.Package, fuzzRefs, sizePins map[string]bool) {
	for _, f := range pkg.Files {
		if pkg.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				checkType(pass, pkg, ts, named, fuzzRefs, sizePins)
			}
		}
	}
}

func checkType(pass *analysis.Pass, pkg *analysis.Package, ts *ast.TypeSpec, named *types.Named, fuzzRefs, sizePins map[string]bool) {
	var hasMarshal, hasUnmarshal, hasSize bool
	for i := 0; i < named.NumMethods(); i++ {
		switch named.Method(i).Name() {
		case "MarshalBinary":
			hasMarshal = true
		case "UnmarshalBinary":
			hasUnmarshal = true
		case "EncodedSize":
			hasSize = true
		}
	}
	// The gate is the binary-codec pair: a type with only WriteTo (a
	// telemetry exporter, a report renderer) is not board-bound.
	if !hasMarshal && !hasUnmarshal {
		return
	}
	if hasMarshal != hasUnmarshal {
		have, missing := "MarshalBinary", "UnmarshalBinary"
		if hasUnmarshal {
			have, missing = missing, have
		}
		pass.Reportf(ts.Pos(), "wire type %s implements %s but not %s; board-crossing types implement the MarshalBinary/UnmarshalBinary pair",
			named.Obj().Name(), have, missing)
		return
	}
	key := taint.TypeKey(named.Obj())
	if !hasSize {
		pass.Reportf(ts.Pos(), "wire type %s has no EncodedSize method; the wire-size model must be explicit for byte accounting", named.Obj().Name())
	}
	if !fuzzRefs[key] {
		pass.Reportf(ts.Pos(), "wire type %s has no Fuzz target exercising its codec; hostile bytes must reach UnmarshalBinary", named.Obj().Name())
	}
	if hasSize && !sizePins[key] {
		pass.Reportf(ts.Pos(), "wire type %s: EncodedSize is not pinned by any test; the size model can drift silently", named.Obj().Name())
	}
}

// checkPayloads flags codec-less payload expressions at board publication
// calls in non-test files.
func checkPayloads(pass *analysis.Pass, pkg *analysis.Package) {
	boardNames := map[string]bool{"Post": true, "Publish": true, "Broadcast": true}
	for _, f := range pkg.Files {
		if pkg.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pkg.Callee(call)
			if fn == nil || fn.Pkg() == nil || !boardNames[fn.Name()] || !analysis.BoardPkg(fn.Pkg().Path()) {
				return true
			}
			for _, arg := range call.Args {
				if reason := codecless(pkg, arg); reason != "" {
					pass.Reportf(arg.Pos(), "codec-less board payload %s: wire bytes come from a codec (MarshalBinary/encodeWire), not from text", reason)
				}
			}
			return true
		})
	}
}

// codecless reports why an argument is text dressed up as wire bytes:
// a []byte(string) conversion or a fmt.Append* result.
func codecless(pkg *analysis.Package, arg ast.Expr) string {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return ""
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if !isByteSlice(tv.Type) || len(call.Args) != 1 {
			return ""
		}
		if at, ok := pkg.Info.Types[call.Args[0]]; ok && at.Type != nil {
			if b, ok := at.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return "[]byte(" + types.ExprString(call.Args[0]) + ")"
			}
		}
		return ""
	}
	if fn := pkg.Callee(call); fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Append") {
		return "fmt." + fn.Name() + "(…)"
	}
	return ""
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// namedKey renders the named type behind t (through pointers) as a
// TypeKey, "" when t is not named.
func namedKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return taint.TypeKey(n.Obj())
	}
	return ""
}
