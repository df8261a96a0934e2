// Package cryptorand forbids math/rand in the crypto-bearing packages of
// the repository. Secret randomness — sharing polynomials, key material,
// nonces, encryption randomness — must come from crypto/rand; a PRNG
// seeded from a predictable source silently voids every secrecy theorem
// the protocol relies on (the exact footgun lattigo and the MASCOT
// writeup warn about).
//
// The check flags the import of math/rand (and math/rand/v2) and every
// use of the imported package in a protected package's non-test files.
// Deterministic simulation uses — adversary corruption sampling,
// reproducible benchmark inputs — are allowed when the line carries a
// //yosolint:simulation directive with a justification.
package cryptorand

import (
	"go/ast"
	"go/types"
	"strconv"

	"yosompc/internal/analysis"
)

// Analyzer is the cryptorand analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "cryptorand",
	Doc:        "forbid math/rand in crypto-bearing packages; secret randomness must use crypto/rand",
	Directives: []string{"simulation", "ignore"},
	Run:        run,
}

// mathRand matches the forbidden import paths.
var mathRand = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Targets {
		if analysis.CryptoBearing(pkg.Types.Path()) {
			checkPackage(pass, pkg)
		}
	}
	return nil
}

func checkPackage(pass *analysis.Pass, pkg *analysis.Package) {
	for _, f := range pkg.Files {
		if pkg.IsTestFile(f.Pos()) {
			// Tests may use deterministic randomness freely.
			continue
		}
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || !mathRand[path] {
				continue
			}
			pass.Reportf(spec.Pos(), "crypto-bearing package %s imports %s; use crypto/rand (or annotate //yosolint:simulation)", pkg.Types.Path(), path)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pkg.Info.Uses[id].(*types.PkgName)
			if !ok || !mathRand[pkgName.Imported().Path()] {
				return true
			}
			pass.Reportf(sel.Pos(), "use of %s.%s in crypto-bearing package; use crypto/rand (or annotate //yosolint:simulation)", pkgName.Imported().Path(), sel.Sel.Name)
			return true
		})
	}
}
