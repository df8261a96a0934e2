package modexp

import (
	"math/big"
	"math/bits"
)

// math/big runs Montgomery multiplication only inside Int.Exp, and only
// for multi-word exponents; every other modular product it reduces by
// long division. A montgomery context reduces by REDC instead: with
// R = 2^(_W·n) for an n-word odd modulus m, a residue x is held as
// x·R mod m, and the double-width product T of two such comes back into
// [0, m) as (T + q·m)/R with q = T·(−m⁻¹) mod R — two more math/big
// multiplications (Karatsuba from 40 words on), an addition and a word
// shift, where QuoRem runs a schoolbook division. Both kernels do every
// product of a walk in Montgomery form and convert once at each end.

// _W is the size of a big.Word in bits.
const _W = bits.UintSize

// montgomery is the REDC context of one odd modulus m > 1, computed once
// per modulus and immutable afterwards.
type montgomery struct {
	m    *big.Int // the modulus
	n    int      // words in m; R = 2^(_W·n)
	mInv *big.Int // −m⁻¹ mod R
	rr   *big.Int // R² mod m: to multiplies by it
	one  *big.Int // R mod m, the Montgomery form of 1
}

// montOf returns modulus's context from the process-wide cache (keyed by
// the modulus's bytes), or nil when it has none: −m⁻¹ mod R exists only
// for an odd modulus, and an even one (or 1) takes plain math/big
// arithmetic.
func montOf(modulus *big.Int) *montgomery {
	if modulus.Bit(0) == 0 || modulus.BitLen() < 2 {
		return nil
	}
	c, _, _ := monts.LoadOrBuild(string(modulus.Bytes()), newMontgomery)
	return c
}

func newMontgomery(key string) (*montgomery, error) {
	m := new(big.Int).SetBytes([]byte(key))
	n := len(m.Bits())
	r := new(big.Int).Lsh(bigOne, uint(_W*n))
	inv := new(big.Int).ModInverse(m, r) // m is odd: a unit mod R
	inv.Sub(r, inv)
	rr := new(big.Int).Lsh(bigOne, uint(2*_W*n))
	return &montgomery{m: m, n: n, mInv: inv, rr: rr.Mod(rr, m), one: r.Mod(r, m)}, nil
}

// montScratch is the working set of REDC — the double-width product, a
// view of its low half, the quotient q and q·m + T — reused across a
// whole walk, so a walk allocates a constant handful of buffers however
// long its exponent. The products pass through powers of the base by
// every prefix of the exponent, so when the exponent is secret so is the
// scratch; it never leaves the walk that declares it.
type montScratch struct { //yosolint:secret partial powers of a possibly secret exponent
	prod, lo, q, qm big.Int
}

// mul sets z = x·y·R⁻¹ mod m for x, y in [0, m); z may be x or y.
func (c *montgomery) mul(z, x, y *big.Int, s *montScratch) {
	s.prod.Mul(x, y)
	c.redc(z, &s.prod, s)
}

// redc sets z = t·R⁻¹ mod m for t in [0, m·R): t + q·m is a multiple of
// R below 2m·R, so the shifted sum needs at most one subtraction.
func (c *montgomery) redc(z, t *big.Int, s *montScratch) {
	tw := t.Bits()
	s.lo.SetBits(tw[:min(len(tw), c.n)])
	s.q.Mul(&s.lo, c.mInv)
	qw := s.q.Bits()
	s.q.SetBits(qw[:min(len(qw), c.n)])
	s.qm.Mul(&s.q, c.m)
	s.qm.Add(&s.qm, t)
	z.Rsh(&s.qm, uint(_W*c.n))
	if z.Cmp(c.m) >= 0 {
		z.Sub(z, c.m)
	}
}

// to sets z = x·R mod m, the Montgomery form of x in [0, m).
func (c *montgomery) to(z, x *big.Int, s *montScratch) { c.mul(z, x, c.rr, s) }

// from sets z to the canonical residue x·R⁻¹ mod m of a Montgomery-form x.
func (c *montgomery) from(z, x *big.Int, s *montScratch) { c.redc(z, x, s) }

// Both kernels keep their precomputed residues in one word slab of
// n-word slots instead of one big.Int each: a table is one allocation,
// and the walk reads a slot through a view.

// put stores x in [0, m) in slot i of slab.
func (c *montgomery) put(slab []big.Word, i int, x *big.Int) {
	w := slab[i*c.n : (i+1)*c.n]
	clear(w[copy(w, x.Bits()):])
}

// at makes v a view of slot i of slab and returns it. The view is read
// only: it shares the slot's words, capped at the slot's end.
func (c *montgomery) at(v *big.Int, slab []big.Word, i int) *big.Int {
	return v.SetBits(slab[i*c.n : (i+1)*c.n : (i+1)*c.n])
}

// digit reads the w-bit window (w < _W) of the magnitude x at bit off.
func digit(x []big.Word, off, w uint) uint {
	i, s := off/_W, off%_W
	if i >= uint(len(x)) {
		return 0
	}
	d := uint(x[i]) >> s
	if s+w > _W && i+1 < uint(len(x)) {
		d |= uint(x[i+1]) << (_W - s)
	}
	return d & (1<<w - 1)
}
