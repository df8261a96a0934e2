package tte

import (
	"math/big"
	"math/bits"
)

// TEval's sums Σ cᵢ·xᵢ — a result's bound on both backends and its value
// on Sim — come from one multiply-accumulate kernel over machine words:
// every term is added into one accumulator in place, so a sum of any length
// allocates nothing but its result's words. Operands are non-negative. Like
// the math/big arithmetic it replaces, the kernel's time depends on the
// operands' lengths, on which coefficient words are zero or one, and on
// carries; it runs on public bounds, Sim's in-the-clear values, and the
// bound a writer gives its Beaver c-part, whose coefficient is secret: that
// bound never leaves the writer, whose readers attach a public one.

// termLen is the number of words the product c·x can take, none when
// either is zero. A sum needs its longest term's plus one, for the carries
// of up to 2^UintSize terms.
func termLen(c, x *big.Int) int {
	cw, xw := len(c.Bits()), len(x.Bits())
	if cw == 0 || xw == 0 {
		return 0
	}
	return cw + xw
}

// addProduct adds c·x into z, which must be long enough for the sum it
// accumulates: a word longer than the sum's longest termLen. It makes one
// pass over x's words per non-zero word of c, so slot packing's powers of
// two cost one, and a word of one (the all-one contribution sums) adds x
// without multiplying.
func addProduct(z []big.Word, c, x *big.Int) {
	xs := x.Bits()
	if len(xs) == 0 {
		return
	}
	for j, cw := range c.Bits() {
		switch cw {
		case 0:
		case 1:
			addTo(z[j:], xs)
		default:
			mulAddTo(z[j:], xs, cw)
		}
	}
}

// addTo adds x into z, carrying past len(x); z holds the sum.
func addTo(z, x []big.Word) {
	zx := z[:len(x)]
	var c uint
	for i, xi := range x {
		var s uint
		s, c = bits.Add(uint(zx[i]), uint(xi), c)
		zx[i] = big.Word(s)
	}
	carryInto(z[len(x):], c)
}

// mulAddTo adds x·y into z, carrying past len(x); z holds the sum.
func mulAddTo(z, x []big.Word, y big.Word) {
	zx := z[:len(x)]
	var c uint
	for i, xi := range x {
		hi, lo := bits.Mul(uint(xi), uint(y))
		var cc uint
		lo, cc = bits.Add(lo, uint(zx[i]), 0)
		hi += cc
		lo, cc = bits.Add(lo, c, 0)
		zx[i] = big.Word(lo)
		c = hi + cc
	}
	carryInto(z[len(x):], c)
}

// carryInto adds the word c into z.
func carryInto(z []big.Word, c uint) {
	for i := 0; c != 0; i++ {
		var s uint
		s, c = bits.Add(uint(z[i]), c, 0)
		z[i] = big.Word(s)
	}
}
