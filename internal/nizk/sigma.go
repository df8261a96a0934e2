package nizk

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"math/big"

	"yosompc/internal/modexp"
)

// Real Fiat–Shamir sigma protocols. Challenges are 128 bits; responses
// carry 80 bits of statistical masking.

const (
	challengeBits = 128
	maskBits      = 80
)

var bigOne = big.NewInt(1)

// EqExpProof proves knowledge of w with h1 = g1^w and h2 = g2^w in Z*_{N²}
// — the Shoup-style relation certifying a partial decryption against a
// verification key.
type EqExpProof struct {
	// A1, A2 are the commitments g1^x, g2^x.
	A1, A2 *big.Int
	// Z is the response x + e·w over the integers.
	Z *big.Int
}

// ProveEqExp proves h1 = g1^w ∧ h2 = g2^w (mod modulus). wBound is a public
// upper bound on |w| used to size the masking randomness. Signed witnesses
// are supported (key shares go negative after integer resharing). The
// commitments are two plain exponentiations (modexp.ExpSigned): this
// proof is not on the protocol's path, so no caller holds a table for
// its bases.
func ProveEqExp(modulus, g1, g2, h1, h2, w, wBound *big.Int) (*EqExpProof, error) {
	xBound := new(big.Int).Lsh(wBound, challengeBits+maskBits)
	x, err := rand.Int(rand.Reader, xBound)
	if err != nil {
		return nil, fmt.Errorf("nizk: sampling commitment: %w", err)
	}
	a1, err := modexp.ExpSigned(g1, x, modulus)
	if err != nil {
		return nil, err
	}
	a2, err := modexp.ExpSigned(g2, x, modulus)
	if err != nil {
		return nil, err
	}
	e := eqExpChallenge(modulus, g1, g2, h1, h2, a1, a2)
	z := new(big.Int).Mul(e, w)
	z.Add(z, x)
	return &EqExpProof{A1: a1, A2: a2, Z: z}, nil
}

// VerifyEqExp checks an EqExpProof: g^Z ≡ A · h^e (mod modulus) for both
// base/public pairs, with signed Z supported via modular inversion. g^Z
// is a plain exponentiation (modexp.ExpSigned) and A·h^e one Straus
// pass.
func VerifyEqExp(modulus, g1, g2, h1, h2 *big.Int, proof *EqExpProof) bool {
	if proof == nil || proof.A1 == nil || proof.A2 == nil || proof.Z == nil {
		return false
	}
	e := eqExpChallenge(modulus, g1, g2, h1, h2, proof.A1, proof.A2)
	check := func(g, h, a *big.Int) bool {
		lhs, err := modexp.ExpSigned(g, proof.Z, modulus)
		if err != nil {
			return false
		}
		rhs, err := modexp.MultiExp(modulus, []*big.Int{h, a}, []*big.Int{e, bigOne})
		if err != nil {
			return false
		}
		return lhs.Cmp(rhs) == 0
	}
	return check(g1, h1, proof.A1) && check(g2, h2, proof.A2)
}

func eqExpChallenge(modulus, g1, g2, h1, h2, a1, a2 *big.Int) *big.Int {
	return challenge("eq-exp", modulus.Bytes(), g1.Bytes(), g2.Bytes(),
		h1.Bytes(), h2.Bytes(), a1.Bytes(), a2.Bytes())
}

// challenge derives a challengeBits-bit Fiat–Shamir challenge.
func challenge(label string, components ...[]byte) *big.Int {
	h := sha256.New()
	h.Write([]byte("yosompc/challenge/"))
	h.Write([]byte(label))
	for _, c := range components {
		var lenBuf [8]byte
		n := len(c)
		for i := 7; i >= 0; i-- {
			lenBuf[i] = byte(n)
			n >>= 8
		}
		h.Write(lenBuf[:])
		h.Write(c)
	}
	sum := h.Sum(nil)
	return new(big.Int).SetBytes(sum[:challengeBits/8])
}
