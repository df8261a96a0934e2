// Package modexp is the big-integer exponentiation engine behind the
// Paillier/Damgård–Jurik hot paths: fixed-base Lim–Lee comb tables for
// recurring bases (the encryption randomizer h_s a paillier.DJKey holds,
// the Shoup verification base V, per-round squared ciphertexts), Straus
// interleaved multi-exponentiation for proof verification and threshold
// combination, and cached Δ-power ladders. Tables of bases met at run
// time and ladders are cached process-wide in internal/cowcache maps
// (cache.go); a hit is counted wherever a table serves an
// exponentiation, and the counters are mirrored into telemetry.
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

// FixedBase is a Lim–Lee comb table for one (base, modulus) pair. The
// exponent is cut into combRows blocks of cols = ⌈maxBits/combRows⌉
// bits, block i weighted by g_i = base^(2^(cols·i)), and table[u-1] =
// ∏_{bit i of u} g_i for every non-empty subset u of the rows. Column j
// of the exponent — bit j of every block, read as a combRows-bit digit —
// then selects one entry, so an exponentiation is cols squarings and at
// most cols multiplications over 2^combRows − 1 stored residues, whatever
// maxBits is. All fields are immutable after construction; a FixedBase
// is safe for unbounded concurrent use.
type FixedBase struct {
	base    *big.Int
	modulus *big.Int
	bits    int
	cols    int
	table   []*big.Int
}

// combRows is the comb height h: 2^h − 1 = 255 residues per table (≈ 130
// KiB at a 4096-bit modulus) for ⌈maxBits/8⌉ squarings and as many
// multiplications. One more row would double the table and the build for
// a ninth fewer steps — see docs/PERFORMANCE.md.
const combRows = 8

// NewFixedBase builds the table covering exponents of up to maxBits
// bits: (combRows−1)·cols squarings for the row generators, then one
// multiplication per entry. The modulus must be positive.
func NewFixedBase(base, modulus *big.Int, maxBits int) *FixedBase {
	if maxBits < 1 {
		maxBits = 1
	}
	cols := (maxBits + combRows - 1) / combRows
	t := &FixedBase{
		base:    new(big.Int).Mod(base, modulus),
		modulus: new(big.Int).Set(modulus),
		bits:    maxBits,
		cols:    cols,
		table:   make([]*big.Int, 1<<combRows-1),
	}
	// Row i's generator is the previous one squared cols times. Entry u
	// extends entry u − 2^i (i the top set bit of u) by g_i, so the table
	// fills in index order with one multiplication each. Entries are
	// copied out of the scratch so each holds exactly one residue.
	var s, e combScratch
	s.acc.Set(t.base)
	for i := 0; i < combRows; i++ {
		if i > 0 {
			for c := 0; c < cols; c++ {
				s.step(&s.acc, modulus)
			}
		}
		gen := new(big.Int).Set(&s.acc)
		top := 1 << i
		t.table[top-1] = gen
		for u := top + 1; u < top<<1; u++ {
			e.acc.Set(t.table[u-top-1])
			e.step(gen, modulus)
			t.table[u-1] = new(big.Int).Set(&e.acc)
		}
	}
	return t
}

// Bits returns the exponent size in bits the table covers.
func (t *FixedBase) Bits() int { return t.bits }

// Exp computes base^exp mod modulus from the table and counts a
// table-cache hit. Exponents longer than the table covers (or negative)
// fall back to the plain path, so the result is always exact.
func (t *FixedBase) Exp(exp *big.Int) *big.Int {
	if exp.Sign() < 0 || exp.BitLen() > t.bits {
		return new(big.Int).Exp(t.base, exp, t.modulus)
	}
	tableStats.Hit()
	return t.comb(exp)
}

// combScratch is the working set of one comb walk. The accumulator passes
// through base^(prefix of exp) for every column prefix, so when the
// exponent is secret so is the scratch; it never leaves comb.
type combScratch struct { //yosolint:secret partial powers of a possibly secret exponent
	acc, prod, quo big.Int
}

// step sets acc = acc·x mod m. Int.Mod would allocate a quotient per
// call; QuoRem into the scratch makes the whole walk O(1) allocations.
func (s *combScratch) step(x, m *big.Int) {
	s.prod.Mul(&s.acc, x)
	s.quo.QuoRem(&s.prod, m, &s.acc)
}

// comb is the table walk behind Exp for 0 ≤ exp < 2^bits: from the top
// column down, square, then multiply by the entry the column's digit
// selects. Which columns multiply depends on the exponent — variable
// time like everything in this package.
func (t *FixedBase) comb(exp *big.Int) *big.Int {
	var s combScratch
	started := false
	for j := min(t.cols, exp.BitLen()) - 1; j >= 0; j-- {
		if started {
			s.step(&s.acc, t.modulus)
		}
		var u uint
		for i := 0; i < combRows; i++ {
			u |= exp.Bit(i*t.cols+j) << i
		}
		if u == 0 {
			continue
		}
		if started {
			s.step(t.table[u-1], t.modulus)
		} else {
			s.acc.Set(t.table[u-1])
			started = true
		}
	}
	if !started {
		return new(big.Int).Mod(bigOne, t.modulus)
	}
	return new(big.Int).Set(&s.acc)
}

// ExpSigned is Exp with negative-exponent support: base^(−e) is
// computed as (base^e)⁻¹ mod modulus, which is the same canonical
// residue the naive invert-the-base-first path produces.
func (t *FixedBase) ExpSigned(exp *big.Int) (*big.Int, error) {
	return signed(t.Exp, exp, t.modulus)
}

// signed lifts pow, an exponentiation for exponents ≥ 0, to signed ones.
func signed(pow func(*big.Int) *big.Int, exp, modulus *big.Int) (*big.Int, error) {
	if exp.Sign() >= 0 {
		return pow(exp), nil
	}
	inv := new(big.Int).ModInverse(pow(new(big.Int).Neg(exp)), modulus)
	if inv == nil {
		return nil, ErrNotInvertible
	}
	return inv, nil
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
	// A comb build costs about maxBits + 2^combRows modular
	// multiplications, a table exponentiation maxBits/4, a plain one
	// about 1.2·maxBits in cheaper Montgomery steps; the table pays for
	// itself from roughly four exponentiations up.
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
