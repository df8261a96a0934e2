package field

import "math/bits"

// Lazy-reduction arithmetic: the cached share-algebra engine applies the
// same precomputed coefficient rows to thousands of value vectors, so the
// inner product is its single hottest operation. InnerProductLazy keeps
// partial sums unreduced in a 128-bit accumulator and folds back into the
// field once per 4 terms instead of once per term, which removes three of
// every four conditional reductions from the loop while returning exactly
// the canonical value InnerProduct would.

// reduce128 folds a 128-bit value hi·2^64 + lo into canonical form.
// Correct for any hi < 2^60 (a 4-term block of canonical products keeps
// hi just above 2^60/2, well inside the bound): 2^64 ≡ 8 (mod p), so the
// value is congruent to hi·8 + lo>>61 + (lo&p), which one more folding
// round and a single conditional subtraction bring under p.
func reduce128(hi, lo uint64) Element {
	r := hi<<3 + lo>>61 // < 2^61 + 2^3 when hi < 2^58
	s := r + (lo & Modulus)
	// s < 2^62, so one more fold reaches [0, 2p) and one subtraction
	// canonicalizes.
	s = (s >> 61) + (s & Modulus)
	if s >= Modulus {
		s -= Modulus
	}
	return Element{s}
}

// InnerProductLazy returns Σ a_i·b_i, identical to InnerProduct, using
// lazy reduction: products accumulate unreduced in 128 bits and fold into
// the field once per 4 terms. Each product of canonical inputs is below
// 2^122, so a 4-term block stays below 2^124 and never overflows the
// accumulator. Panics on length mismatch like the canonical version.
func InnerProductLazy(a, b []Element) Element {
	mustSameLen("InnerProductLazy", a, b)
	var acc Element
	i := 0
	for ; i+4 <= len(a); i += 4 {
		hi, lo := bits.Mul64(a[i].v, b[i].v)
		h1, l1 := bits.Mul64(a[i+1].v, b[i+1].v)
		h2, l2 := bits.Mul64(a[i+2].v, b[i+2].v)
		h3, l3 := bits.Mul64(a[i+3].v, b[i+3].v)
		var c uint64
		lo, c = bits.Add64(lo, l1, 0)
		hi += h1 + c
		lo, c = bits.Add64(lo, l2, 0)
		hi += h2 + c
		lo, c = bits.Add64(lo, l3, 0)
		hi += h3 + c
		acc = acc.Add(reduce128(hi, lo))
	}
	for ; i < len(a); i++ {
		acc = acc.Add(a[i].Mul(b[i]))
	}
	return acc
}

// MatVecLazy applies an m-row coefficient matrix to the value vector v,
// returning (rows[0]·v, ..., rows[m-1]·v) via InnerProductLazy. Every row
// must have len(v) entries; this is the share-generation primitive of the
// sharing domain (one row per share index).
func MatVecLazy(rows [][]Element, v []Element) []Element {
	out := make([]Element, len(rows))
	for i, row := range rows {
		out[i] = InnerProductLazy(row, v)
	}
	return out
}
