package modexp

import "math/big"

// Straus interleaved multi-exponentiation: ∏ bases[i]^exps[i] mod
// modulus in one pass, sharing the squaring chain across all bases
// instead of squaring once per base. For k bases of b-bit exponents the
// naive product of k separate exponentiations costs ≈ k·1.5·b modular
// multiplications; Straus with window w costs b squarings (shared) plus
// ≈ k·b/w multiplications plus k·2^w precomputation — for the proof
// verifier's k=2 that is ≈ 1.5× fewer multiplications, and for
// Combine's k=t+1 products of verification-key powers the shared
// squaring chain dominates and the saving approaches k×/(1+k/w).

// multiExpWindow is Straus's per-base precomputation window. w=4 keeps
// the per-base table at 15 entries — negligible against the shared
// squaring chain for the exponent sizes here (hundreds to thousands of
// bits).
const multiExpWindow = 4

// MultiExp computes ∏ bases[i]^exps[i] mod modulus with signed
// exponents (a negative exponent inverts its base first, as ExpSigned
// does). The result is the canonical residue, bit-identical to the
// naive product of ExpSigned terms reduced mod modulus. Empty input
// yields 1 mod modulus.
func MultiExp(modulus *big.Int, bases, exps []*big.Int) (*big.Int, error) {
	if len(bases) != len(exps) {
		panic("modexp: MultiExp length mismatch")
	}
	acc := new(big.Int).Mod(bigOne, modulus)
	if len(bases) == 0 {
		return acc, nil
	}
	// Normalize to non-negative exponents over (possibly inverted)
	// bases, and build the 15-entry odd+even power table per base.
	maxBits := 0
	norm := make([]*big.Int, len(bases))
	pos := make([]*big.Int, len(exps))
	for i := range bases {
		b, e := bases[i], exps[i]
		if e.Sign() < 0 {
			inv := new(big.Int).ModInverse(b, modulus)
			if inv == nil {
				return nil, ErrNotInvertible
			}
			b = inv
			e = new(big.Int).Neg(e)
		}
		norm[i] = b
		pos[i] = e
		if bl := e.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	if maxBits == 0 {
		return acc, nil
	}
	tables := make([][]*big.Int, len(norm))
	for i, b := range norm {
		row := make([]*big.Int, (1<<multiExpWindow)-1)
		row[0] = new(big.Int).Mod(b, modulus)
		for j := 1; j < len(row); j++ {
			row[j] = new(big.Int).Mul(row[j-1], row[0])
			row[j].Mod(row[j], modulus)
		}
		tables[i] = row
	}
	// Walk the exponents one w-bit window at a time from the top:
	// w shared squarings, then one multiplication per base whose
	// current digit is non-zero.
	windows := (maxBits + multiExpWindow - 1) / multiExpWindow
	mask := uint(1<<multiExpWindow) - 1
	started := false
	for j := windows - 1; j >= 0; j-- {
		if started {
			for s := 0; s < multiExpWindow; s++ {
				acc.Mul(acc, acc)
				acc.Mod(acc, modulus)
			}
		}
		for i := range tables {
			digit := digitAt(pos[i], uint(j)*multiExpWindow, multiExpWindow, mask)
			if digit == 0 {
				continue
			}
			acc.Mul(acc, tables[i][digit-1])
			acc.Mod(acc, modulus)
			started = true
		}
	}
	return acc, nil
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
