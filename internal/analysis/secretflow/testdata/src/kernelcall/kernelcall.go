// Package kernelcall checks the caller side of the kernel sanction: a
// non-exempt package that hands secrets to the sanctioned kernel stays
// silent, while its own variable-time operations still report.
package kernelcall

import (
	"math/big"

	"yosompc/internal/analysis/secretflow/testdata/src/paillier"
)

// Exp is a secret exponent share.
//
//yosolint:secret exponent share under test
type Exp struct {
	D *big.Int
}

func UsesKernel(p paillier.Prime, e Exp, x *big.Int) *big.Int {
	r := paillier.Reduce(p, x) // clean: kernel summaries carry no trace-sink facts
	if e.D.Cmp(x) < 0 {        // want `secret value e\.D feeds variable-time big\.Int operation`
		return r
	}
	return x
}
