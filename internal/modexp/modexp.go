// Package modexp is the big-integer exponentiation engine behind the
// Paillier/Damgård–Jurik hot paths: fixed-base windowed-exponentiation
// tables for recurring bases (the Shoup verification base V, per-round
// squared ciphertexts, the 1+N encryption base's algebraic shortcuts in
// package paillier), Straus interleaved multi-exponentiation for proof
// verification and threshold combination, and cached Δ-power ladders.
// Tables and ladders are cached process-wide in internal/cowcache maps
// (cache.go), with hit/miss counters mirrored into telemetry.
//
// ExpSigned — plain math/big square-and-multiply — is the reference:
// the tests and FuzzEngineVsNaive pin every engine path to it
// bit-for-bit. Engine outputs are canonical residues, so "equal as
// group elements" and "bit-identical" coincide.
//
// Side-channel posture: everything here is variable-time by
// construction — math/big has no constant-time path for any of these
// operations. This package is the sanctioned home for variable-time
// big-integer exponentiation (see internal/analysis/sidechannel): the
// justification that used to ride on per-call-site //yosolint:vartime
// directives for expSigned in tte and nizk lives here instead. Modular
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

// FixedBase is a precomputed windowed-exponentiation table for one
// (base, modulus) pair: table[j][i-1] = base^(i · 2^(w·j)) mod modulus
// for w-bit digits i and digit positions j covering maxBits exponent
// bits. Exponentiation then costs one modular multiplication per
// non-zero digit — no squarings at all — roughly a (w+1)× reduction in
// multiplications over square-and-multiply at the price of
// ⌈maxBits/w⌉·(2^w−1) stored residues. All fields are immutable after
// construction; a FixedBase is safe for unbounded concurrent use.
type FixedBase struct {
	base    *big.Int
	modulus *big.Int
	window  uint
	bits    int
	table   [][]*big.Int
}

// maxTableEntries caps one table's precomputed residues: the window
// width shrinks until the table fits. At 2^13 entries a 4096-bit
// modulus costs ≤ 4 MiB per table — see docs/PERFORMANCE.md for the
// window-size trade-off.
const maxTableEntries = 1 << 13

// windowFor picks the widest window w ≤ 8 whose table for maxBits-bit
// exponents stays under maxTableEntries.
func windowFor(maxBits int) uint {
	for w := uint(8); w > 1; w-- {
		windows := (maxBits + int(w) - 1) / int(w)
		if windows*((1<<w)-1) <= maxTableEntries {
			return w
		}
	}
	return 1
}

// NewFixedBase builds the table covering exponents of up to maxBits
// bits. The base must be a canonical residue of the (positive) modulus.
func NewFixedBase(base, modulus *big.Int, maxBits int) *FixedBase {
	if maxBits < 1 {
		maxBits = 1
	}
	w := windowFor(maxBits)
	windows := (maxBits + int(w) - 1) / int(w)
	t := &FixedBase{
		base:    new(big.Int).Set(base),
		modulus: new(big.Int).Set(modulus),
		window:  w,
		bits:    maxBits,
		table:   make([][]*big.Int, windows),
	}
	// Row j starts from base^(2^(w·j)): w squarings of the previous
	// row's generator, then 2^w−2 multiplications fill the row.
	gen := new(big.Int).Set(base)
	gen.Mod(gen, modulus)
	for j := 0; j < windows; j++ {
		row := make([]*big.Int, (1<<w)-1)
		row[0] = new(big.Int).Set(gen)
		for i := 1; i < len(row); i++ {
			row[i] = new(big.Int).Mul(row[i-1], gen)
			row[i].Mod(row[i], modulus)
		}
		t.table[j] = row
		if j+1 < windows {
			gen = new(big.Int).Set(row[0])
			for s := uint(0); s < w; s++ {
				gen.Mul(gen, gen)
				gen.Mod(gen, modulus)
			}
		}
	}
	return t
}

// Bits returns the exponent size in bits the table covers.
func (t *FixedBase) Bits() int { return t.bits }

// Exp computes base^exp mod modulus from the table. Exponents longer
// than the table covers (or negative) fall back to the plain path, so
// the result is always exact.
func (t *FixedBase) Exp(exp *big.Int) *big.Int {
	if exp.Sign() < 0 || exp.BitLen() > t.bits {
		return new(big.Int).Exp(t.base, exp, t.modulus)
	}
	acc := big.NewInt(1)
	w := t.window
	mask := uint(1<<w) - 1
	bits := exp.BitLen()
	for j := 0; j*int(w) < bits; j++ {
		digit := digitAt(exp, uint(j)*w, w, mask)
		if digit == 0 {
			continue
		}
		acc.Mul(acc, t.table[j][digit-1])
		acc.Mod(acc, t.modulus)
	}
	return acc
}

// ExpSigned is Exp with negative-exponent support: base^(−e) is
// computed as (base^e)⁻¹ mod modulus, which is the same canonical
// residue the naive invert-the-base-first path produces.
func (t *FixedBase) ExpSigned(exp *big.Int) (*big.Int, error) {
	if exp.Sign() >= 0 {
		return t.Exp(exp), nil
	}
	pos := t.Exp(new(big.Int).Neg(exp))
	inv := new(big.Int).ModInverse(pos, t.modulus)
	if inv == nil {
		return nil, ErrNotInvertible
	}
	return inv, nil
}

// digitAt extracts the w-bit digit of exp starting at bit offset. Bit()
// is O(1), so a digit read is O(w) — noise next to the modular
// multiplication it selects.
func digitAt(exp *big.Int, offset, w, mask uint) uint {
	var d uint
	for i := uint(0); i < w; i++ {
		d |= exp.Bit(int(offset+i)) << i
	}
	return d & mask
}

// ExpManySigned computes base^exp for every exponent over one shared
// modulus. With enough exponents to amortize the table build it uses a
// fixed-base table sized to the largest |exp|; small batches take the
// plain path. Either way each result is bit-identical to ExpSigned.
func ExpManySigned(base, modulus *big.Int, exps []*big.Int) ([]*big.Int, error) {
	out := make([]*big.Int, len(exps))
	maxBits := 0
	for _, e := range exps {
		if b := e.BitLen(); b > maxBits {
			maxBits = b
		}
	}
	// A table build costs about windows·2^w ≈ maxBits·2^w/w modular
	// multiplications, an exponentiation about 1.2·maxBits; the table
	// pays for itself from roughly four exponentiations up.
	if len(exps) >= 4 && maxBits >= 256 {
		t := NewFixedBase(base, modulus, maxBits)
		for i, e := range exps {
			v, err := t.ExpSigned(e)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	for i, e := range exps {
		v, err := ExpSigned(base, e, modulus)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
