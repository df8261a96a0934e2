package modexp

import "math/big"

// Straus interleaved multi-exponentiation: ∏ bases[i]^exps[i] mod
// modulus in one pass, sharing the squaring chain across all bases
// instead of squaring once per base. For k bases of b-bit exponents and
// window w that is b squarings (shared) plus k·(2^w − 2) products of
// precomputation and ≈ k·b/w window products, all of them REDC steps
// in Montgomery form: for the proof verifier's k = 2 about 1.5× fewer
// products than two exponentiations, and for TEval's interpolation over
// k ciphertexts with field-sized coefficients one 64-step squaring chain
// instead of k of them.

// maxStrausSlots bounds the k·2^w residues of one call's tables (2 MiB
// at a 4096-bit modulus): many bases narrow the window before they grow
// the scratch.
const maxStrausSlots = 4096

// strausWindow is the window for k bases of exponents up to bits long:
// the w minimizing a base's 2^w − 2 precomputed products plus its
// ⌈bits/w⌉ window products, among those whose tables fit maxStrausSlots.
func strausWindow(bits, k int) int {
	best, cost := 1, bits
	for w := 2; w <= 8 && k<<w <= maxStrausSlots; w++ {
		if c := 1<<w - 2 + (bits+w-1)/w; c < cost {
			best, cost = w, c
		}
	}
	return best
}

// MultiExp computes ∏ bases[i]^exps[i] mod modulus with signed
// exponents (a negative exponent inverts its base, as ExpSigned does).
// The result is the canonical residue, bit-identical to the naive
// product of ExpSigned terms reduced mod modulus, including the
// not-invertible error. Empty input yields 1 mod modulus. Over an odd
// modulus the whole pass is REDC steps on one scratch and one table
// slab; an even modulus multiplies ExpSigned terms.
func MultiExp(modulus *big.Int, bases, exps []*big.Int) (*big.Int, error) {
	if len(bases) != len(exps) {
		panic("modexp: MultiExp length mismatch")
	}
	c := montOf(modulus)
	if c == nil {
		return plainProduct(modulus, bases, exps)
	}
	terms := make([]int, 0, len(exps)) // the bases with non-zero exponents
	maxBits, negative := 0, false
	for i, e := range exps {
		if e.Sign() != 0 {
			terms = append(terms, i)
			maxBits = max(maxBits, e.BitLen())
			negative = negative || e.Sign() < 0
		}
	}
	if len(terms) == 0 {
		return new(big.Int).Mod(bigOne, modulus), nil
	}
	// Term j owns slots [j·stride, (j+1)·stride): its base^d in slot
	// d − 1 for d < 2^w, and one spare slot the batch inversion borrows.
	w := strausWindow(maxBits, len(terms))
	stride := 1 << w
	slab := make([]big.Word, len(terms)*stride*c.n)
	var s montScratch
	var acc, x, entry big.Int
	for j, i := range terms {
		c.to(&acc, x.Mod(bases[i], modulus), &s)
		c.put(slab, j*stride, &acc)
	}
	if negative {
		if err := c.invertNegatives(slab, stride, exps, terms, &s); err != nil {
			return nil, err
		}
	}
	for j := range terms {
		b := c.at(&entry, slab, j*stride)
		acc.Set(b)
		for d := 1; d < stride-1; d++ {
			c.mul(&acc, &acc, b, &s)
			c.put(slab, j*stride+d, &acc)
		}
	}
	// Walk the exponents one w-bit window at a time from the top:
	// w shared squarings, then one product per term whose current digit
	// is non-zero.
	started := false
	for win := (maxBits+w-1)/w - 1; win >= 0; win-- {
		if started {
			for range w {
				c.mul(&acc, &acc, &acc, &s)
			}
		}
		for j, i := range terms {
			d := digit(exps[i].Bits(), uint(win*w), uint(w))
			if d == 0 {
				continue
			}
			c.at(&entry, slab, j*stride+int(d)-1)
			if started {
				c.mul(&acc, &acc, &entry, &s)
			} else {
				acc.Set(&entry)
				started = true
			}
		}
	}
	z := new(big.Int)
	c.from(z, &acc, &s)
	return z, nil
}

// invertNegatives replaces, in slot 0 of every term whose exponent is
// negative, the base by its inverse, all from one ModInverse
// (Montgomery's batch trick): the spare slot of each such term first
// takes the product of the bases before it, then the inverse of the
// whole product peels off one base at a time from the last. A product
// with no inverse means some base has none: ErrNotInvertible, exactly
// when the naive product of ExpSigned terms fails.
func (c *montgomery) invertNegatives(slab []big.Word, stride int, exps []*big.Int, terms []int, s *montScratch) error {
	var p, x, entry big.Int
	p.Set(c.one)
	for j, i := range terms {
		if exps[i].Sign() < 0 {
			c.put(slab, j*stride+stride-1, &p)
			c.mul(&p, &p, c.at(&entry, slab, j*stride), s)
		}
	}
	c.from(&x, &p, s)
	if x.ModInverse(&x, c.m) == nil {
		return ErrNotInvertible
	}
	c.to(&p, &x, s)
	for j := len(terms) - 1; j >= 0; j-- {
		if exps[terms[j]].Sign() < 0 {
			c.mul(&x, &p, c.at(&entry, slab, j*stride+stride-1), s)
			c.mul(&p, &p, c.at(&entry, slab, j*stride), s)
			c.put(slab, j*stride, &x)
		}
	}
	return nil
}

// plainProduct is MultiExp over a modulus without a Montgomery context:
// the product of ExpSigned terms.
func plainProduct(modulus *big.Int, bases, exps []*big.Int) (*big.Int, error) {
	acc := new(big.Int).Mod(bigOne, modulus)
	for i := range bases {
		v, err := ExpSigned(bases[i], exps[i], modulus)
		if err != nil {
			return nil, err
		}
		acc.Mod(acc.Mul(acc, v), modulus)
	}
	return acc, nil
}
