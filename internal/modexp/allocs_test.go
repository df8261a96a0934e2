//go:build !race

package modexp

import (
	"math/big"
	"testing"
)

// The race detector makes sync.Pool drop entries at random, so math/big's
// pooled temporaries allocate at random under -race and the counts below
// are only meaningful without it.

// TestFixedBaseExpAllocsConstant: the comb walk reuses its scratch, so an
// exponentiation allocates the same handful of buffers whether it walks
// 32 columns or 256 — a per-column allocation (Int.Mod's quotient) would
// show as hundreds here and as megabytes of garbage per protocol run.
func TestFixedBaseExpAllocsConstant(t *testing.T) {
	r := testRNG(9)
	m := oddModulus(r, 1024)
	base := randBig(r, 1024)
	allocs := func(bits int) float64 {
		tab := NewFixedBase(base, m, bits)
		exp := randBig(r, bits)
		exp.SetBit(exp, bits-1, 1)
		return testing.AllocsPerRun(10, func() { tab.Exp(exp) })
	}
	short, long := allocs(256), allocs(2048)
	if long > short+2 || long > 16 {
		t.Fatalf("allocations grow with the walk: %v at 32 columns, %v at 256", short, long)
	}
}

// TestMultiExpAllocsConstant: the Straus pass runs on one scratch and one
// table slab, so a product over 2048-bit exponents allocates as many
// buffers as one over 64-bit exponents — a per-step allocation (Int.Mod's
// quotient) would show as thousands here.
func TestMultiExpAllocsConstant(t *testing.T) {
	r := testRNG(10)
	m := oddModulus(r, 1024)
	bases := []*big.Int{randUnit(r, m), randUnit(r, m), randUnit(r, m)}
	allocs := func(bits int) float64 {
		exps := []*big.Int{randExp(r, bits), randExp(r, bits), randExp(r, bits)}
		exps[1].Neg(exps[1])
		if _, err := MultiExp(m, bases, exps); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() { MultiExp(m, bases, exps) })
	}
	short, long := allocs(64), allocs(2048)
	if long > short+2 || long > 48 {
		t.Fatalf("allocations grow with the exponents: %v at 64 bits, %v at 2048", short, long)
	}
}
