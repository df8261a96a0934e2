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
	"strings"

	"yosompc/internal/analysis"
)

// Analyzer is the cryptorand analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "cryptorand",
	Doc:        "forbid math/rand in crypto-bearing packages; secret randomness must use crypto/rand",
	Directives: []string{"simulation", "ignore"},
	Run:        run,
}

// protected names the crypto-bearing package path segments. A package is
// checked when any segment of its import path matches.
var protected = map[string]bool{
	"core":      true,
	"committee": true,
	"sharing":   true,
	"pke":       true,
	"paillier":  true,
	"tte":       true,
	"nizk":      true,
	"field":     true,
	"yoso":      true,
}

// mathRand matches the forbidden import paths.
var mathRand = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

func cryptoBearing(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if protected[seg] {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !cryptoBearing(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			// Tests may use deterministic randomness freely.
			continue
		}
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || !mathRand[path] {
				continue
			}
			pass.Reportf(spec.Pos(), "crypto-bearing package %s imports %s; use crypto/rand (or annotate //yosolint:simulation)", pass.Pkg.Path(), path)
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
			pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok || !mathRand[pkgName.Imported().Path()] {
				return true
			}
			pass.Reportf(sel.Pos(), "use of %s.%s in crypto-bearing package; use crypto/rand (or annotate //yosolint:simulation)", pkgName.Imported().Path(), sel.Sel.Name)
			return true
		})
	}
	return nil
}
