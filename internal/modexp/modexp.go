// Package modexp is the big-integer exponentiation engine behind the
// Paillier hot paths: two-dimensional Lim–Lee comb tables for a base its
// owner knows recurs (the encryption randomizer h^N a
// paillier.PublicKey holds, the Shoup verification base v), Straus
// interleaved multi-exponentiation for TEval's interpolations, proof
// verification and threshold combination. Both kernels multiply in
// Montgomery form over an odd modulus, reducing by REDC built from
// math/big multiplications (mont.go); an even modulus takes plain
// big.Int.Exp. Montgomery contexts are cached process-wide in a bounded
// internal/cowcache map (cache.go); a table is built and held by its
// owner, a hit is counted wherever a table serves an exponentiation, and
// the counter is mirrored into telemetry.
//
// ExpSigned — plain math/big square-and-multiply — is the reference:
// the tests and FuzzEngineVsNaive pin every engine path to it
// bit-for-bit. Engine outputs are canonical residues, so "equal as
// group elements" and "bit-identical" coincide.
//
// Side-channel posture: everything here is variable-time by
// construction — math/big has no constant-time path for any of these
// operations. This package is the sanctioned home for variable-time
// big-integer exponentiation (see the sidechannel policy in
// internal/analysis/secretflow, which exempts it and treats its Exp*
// results as sanitized): the justification that used to ride on
// per-call-site //yosolint:vartime directives for expSigned in tte and
// nizk lives here instead. Modular
// exponentiation is a one-way function — g^x publishes a value that
// hides x by the hardness of discrete log / factoring — so results are
// public by design even when exponents are secret; the residual
// timing-channel risk of math/big is documented in
// docs/STATIC_ANALYSIS.md.
package modexp

import (
	"errors"
	"math/big"
)

var bigOne = big.NewInt(1)

// ErrNotInvertible is returned when a negative exponent requires a base
// inversion that does not exist (gcd(base, modulus) ≠ 1).
var ErrNotInvertible = errors.New("modexp: base not invertible")

// ExpSigned computes base^exp mod modulus, supporting negative exponents
// via modular inversion of the base. It is the deduplicated home of the
// expSigned helpers that previously lived in internal/tte and
// internal/nizk, and it is the engine's naive reference path: plain
// math/big square-and-multiply, no tables, no CRT.
func ExpSigned(base, exp, modulus *big.Int) (*big.Int, error) {
	b, e := base, exp
	if exp.Sign() < 0 {
		b = new(big.Int).ModInverse(base, modulus)
		if b == nil {
			return nil, ErrNotInvertible
		}
		e = new(big.Int).Neg(exp)
	}
	return new(big.Int).Exp(b, e, modulus), nil
}

// FixedBase is a two-dimensional Lim–Lee comb for one (base, modulus)
// pair. The exponent is cut into combRows rows of row = ⌈maxBits/combRows⌉
// bits and each row into column blocks of block = ⌈row/combBlocks⌉ bits;
// with g_ij = base^(2^(i·row + j·block)), block j's table holds
// ∏_{bit i of u} g_ij for every non-empty subset u of the rows. Bit k of
// block j in every row, read as a combRows-bit digit u, selects one entry
// of block j's table, so an exponentiation is block − 1 squarings and at
// most row multiplications. Entries are kept in Montgomery form, and
// every product of the walk is a REDC (mont.go); an even modulus has no
// table and exponentiates with big.Int.Exp. All fields are immutable
// after construction; a FixedBase is safe for unbounded concurrent use.
type FixedBase struct {
	base    *big.Int
	modulus *big.Int
	bits    int
	mont    *montgomery // nil for an even modulus
	row     int         // bits per row
	block   int         // bits per column block
	blocks  int         // column blocks per row: ⌈row/block⌉ ≤ combBlocks
	table   []big.Word  // blocks·combEntries Montgomery-form residues
}

// The comb layout is one constant, h = combRows rows by v = combBlocks
// column blocks: v·(2^h − 1) = 2 044 residues, 1 022 KiB at the 4096-bit
// N² of a 2048-bit key, for about maxBits/9 multiplications and
// maxBits/36 squarings — see docs/PERFORMANCE.md.
const (
	combRows    = 9
	combBlocks  = 4
	combEntries = 1<<combRows - 1
)

// NewFixedBase builds the table covering exponents of up to maxBits
// bits: about maxBits squarings for the generators, then one
// multiplication per entry. The modulus must be positive.
func NewFixedBase(base, modulus *big.Int, maxBits int) *FixedBase {
	if maxBits < 1 {
		maxBits = 1
	}
	row := (maxBits + combRows - 1) / combRows
	block := (row + combBlocks - 1) / combBlocks
	t := &FixedBase{
		base:    new(big.Int).Mod(base, modulus),
		modulus: new(big.Int).Set(modulus),
		bits:    maxBits,
		mont:    montOf(modulus),
		row:     row,
		block:   block,
		blocks:  (row + block - 1) / block,
	}
	c := t.mont
	if c == nil {
		return t
	}
	t.table = make([]big.Word, t.blocks*combEntries*c.n)
	// The generators g_ij lie at increasing bit positions i·row + j·block
	// (every block starts inside its row), so one running power squared
	// from each to the next reaches them all. Entry u of a block extends
	// entry u − 2^i (i the top set bit of u) by g_ij, so each block fills
	// in index order with one multiplication per entry.
	var s montScratch
	var g, e, prev big.Int
	c.to(&g, t.base, &s)
	pos := 0
	for i := 0; i < combRows; i++ {
		for j := 0; j < t.blocks; j++ {
			for ; pos < i*row+j*block; pos++ {
				c.mul(&g, &g, &g, &s)
			}
			top, at := 1<<i, j*combEntries-1
			c.put(t.table, at+top, &g)
			for u := top + 1; u < top<<1; u++ {
				c.mul(&e, c.at(&prev, t.table, at+u-top), &g, &s)
				c.put(t.table, at+u, &e)
			}
		}
	}
	return t
}

// Exp computes base^exp mod modulus from the table and counts a
// table-cache hit. Exponents longer than the table covers (or negative),
// and every exponent over an even modulus, take the plain path, so the
// result is always exact.
func (t *FixedBase) Exp(exp *big.Int) *big.Int {
	if t.mont == nil || exp.Sign() < 0 || exp.BitLen() > t.bits {
		return new(big.Int).Exp(t.base, exp, t.modulus)
	}
	tableStats.Hit()
	return t.comb(exp)
}

// comb is the table walk behind Exp for 0 ≤ exp < 2^bits over an odd
// modulus: from the top bit of the blocks down, square, then multiply
// by the entry each block's digit selects. Which steps multiply depends
// on the exponent — variable time like everything in this package.
func (t *FixedBase) comb(exp *big.Int) *big.Int {
	c, x := t.mont, exp.Bits()
	var s montScratch
	var acc, entry big.Int
	started := false
	for k := t.block - 1; k >= 0; k-- {
		if started {
			c.mul(&acc, &acc, &acc, &s)
		}
		for j := 0; j < t.blocks; j++ {
			off := j*t.block + k
			if off >= t.row { // the last block of a row may be short
				continue
			}
			var u int
			for i := 0; i < combRows; i++ {
				u |= int(digit(x, uint(i*t.row+off), 1)) << i
			}
			if u == 0 {
				continue
			}
			c.at(&entry, t.table, j*combEntries+u-1)
			if started {
				c.mul(&acc, &acc, &entry, &s)
			} else {
				acc.Set(&entry)
				started = true
			}
		}
	}
	if !started {
		return new(big.Int).Mod(bigOne, t.modulus)
	}
	z := new(big.Int)
	c.from(z, &acc, &s)
	return z
}
