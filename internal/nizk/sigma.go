package nizk

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"math/big"

	"yosompc/internal/modexp"
	"yosompc/internal/paillier"
)

// Real Fiat–Shamir sigma protocols. Challenges are 128 bits; responses
// carry 80 bits of statistical masking.

const (
	challengeBits = 128
	maskBits      = 80
)

var bigOne = big.NewInt(1)

// PlaintextProof is a proof of knowledge of (m, r) with
// c = (1+N)^m · r^N mod N² — the relation roles prove when publishing
// encryptions of their random contributions (offline Steps 1, 2, 4).
type PlaintextProof struct {
	// A is the prover's commitment (1+N)^x · s^N mod N².
	A *big.Int
	// Zm is the masked plaintext response x + e·m (over the integers).
	Zm *big.Int
	// Zr is the masked nonce response s·r^e mod N.
	Zr *big.Int
}

// Size returns the proof's wire size in bytes.
func (p *PlaintextProof) Size() int {
	return (p.A.BitLen() + p.Zm.BitLen() + p.Zr.BitLen() + 23) / 8
}

// ProvePlaintext proves knowledge of the plaintext m and nonce r of c,
// which must have been produced by pk.EncryptWithNonce(m, r).
func ProvePlaintext(pk *paillier.PublicKey, c *paillier.Ciphertext, m, r *big.Int) (*PlaintextProof, error) {
	// x masks e·m: m < N and e < 2^challengeBits, so x is sampled from
	// [0, N·2^(challengeBits+maskBits)).
	xBound := new(big.Int).Lsh(pk.N, challengeBits+maskBits)
	x, err := rand.Int(rand.Reader, xBound)
	if err != nil {
		return nil, fmt.Errorf("nizk: sampling commitment: %w", err)
	}
	s, err := pk.RandomUnit(rand.Reader)
	if err != nil {
		return nil, err
	}
	// A = (1+N)^x · s^N mod N².
	a := new(big.Int).Mul(new(big.Int).Mod(x, pk.N), pk.N)
	a.Add(a, bigOne)
	a.Mod(a, pk.N2)
	sn := new(big.Int).Exp(s, pk.N, pk.N2)
	a.Mul(a, sn)
	a.Mod(a, pk.N2)

	e := plaintextChallenge(pk, c, a)

	zm := new(big.Int).Mul(e, m)
	zm.Add(zm, x)
	zr := new(big.Int).Exp(r, e, pk.N)
	zr.Mul(zr, s)
	zr.Mod(zr, pk.N)
	return &PlaintextProof{A: a, Zm: zm, Zr: zr}, nil
}

// VerifyPlaintext checks a PlaintextProof: (1+N)^Zm · Zr^N ≡ A · c^e (mod N²).
func VerifyPlaintext(pk *paillier.PublicKey, c *paillier.Ciphertext, proof *PlaintextProof) bool {
	if proof == nil || proof.A == nil || proof.Zm == nil || proof.Zr == nil {
		return false
	}
	if proof.Zm.Sign() < 0 || proof.Zr.Sign() <= 0 || proof.Zr.Cmp(pk.N) >= 0 {
		return false
	}
	// Range check on Zm: at most x_max + e_max·N.
	zmBound := new(big.Int).Lsh(pk.N, challengeBits+maskBits+1)
	if proof.Zm.Cmp(zmBound) > 0 {
		return false
	}
	e := plaintextChallenge(pk, c, proof.A)
	// LHS = (1+N)^Zm · Zr^N.
	lhs := new(big.Int).Mul(new(big.Int).Mod(proof.Zm, pk.N), pk.N)
	lhs.Add(lhs, bigOne)
	lhs.Mod(lhs, pk.N2)
	zrn := new(big.Int).Exp(proof.Zr, pk.N, pk.N2)
	lhs.Mul(lhs, zrn)
	lhs.Mod(lhs, pk.N2)
	// RHS = A · c^e.
	rhs := new(big.Int).Exp(c.C, e, pk.N2)
	rhs.Mul(rhs, proof.A)
	rhs.Mod(rhs, pk.N2)
	return lhs.Cmp(rhs) == 0
}

func plaintextChallenge(pk *paillier.PublicKey, c *paillier.Ciphertext, a *big.Int) *big.Int {
	return challenge("paillier-plaintext", pk.N.Bytes(), c.C.Bytes(), a.Bytes())
}

// EqExpProof proves knowledge of w with h1 = g1^w and h2 = g2^w in Z*_{N²}
// — the Shoup-style relation certifying a partial decryption against a
// verification key.
type EqExpProof struct {
	// A1, A2 are the commitments g1^x, g2^x.
	A1, A2 *big.Int
	// Z is the response x + e·w over the integers.
	Z *big.Int
}

// Size returns the proof's wire size in bytes.
func (p *EqExpProof) Size() int {
	return (p.A1.BitLen() + p.A2.BitLen() + p.Z.BitLen() + 23) / 8
}

// ProveEqExp proves h1 = g1^w ∧ h2 = g2^w (mod modulus). wBound is a public
// upper bound on |w| used to size the masking randomness. Signed witnesses
// are supported (key shares go negative after integer resharing).
func ProveEqExp(modulus, g1, g2, h1, h2, w, wBound *big.Int) (*EqExpProof, error) {
	xBound := new(big.Int).Lsh(wBound, challengeBits+maskBits)
	x, err := rand.Int(rand.Reader, xBound)
	if err != nil {
		return nil, fmt.Errorf("nizk: sampling commitment: %w", err)
	}
	// The bases recur — g1 = c² across a committee's partials for the
	// same ciphertext, g2 = v across the whole run — so the commitments
	// go through the engine's fixed-base table cache.
	a1, err := modexp.ExpCachedSigned(g1, x, modulus)
	if err != nil {
		return nil, err
	}
	a2, err := modexp.ExpCachedSigned(g2, x, modulus)
	if err != nil {
		return nil, err
	}
	e := eqExpChallenge(modulus, g1, g2, h1, h2, a1, a2)
	z := new(big.Int).Mul(e, w)
	z.Add(z, x)
	return &EqExpProof{A1: a1, A2: a2, Z: z}, nil
}

// VerifyEqExp checks an EqExpProof: g^Z ≡ A · h^e (mod modulus) for both
// base/public pairs, with signed Z supported via modular inversion. The
// long g^Z exponentiation is served from the fixed-base table cache (the
// bases recur exactly as in ProveEqExp) and A·h^e is one Straus pass.
func VerifyEqExp(modulus, g1, g2, h1, h2 *big.Int, proof *EqExpProof) bool {
	if proof == nil || proof.A1 == nil || proof.A2 == nil || proof.Z == nil {
		return false
	}
	e := eqExpChallenge(modulus, g1, g2, h1, h2, proof.A1, proof.A2)
	check := func(g, h, a *big.Int) bool {
		lhs, err := modexp.ExpCachedSigned(g, proof.Z, modulus)
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
