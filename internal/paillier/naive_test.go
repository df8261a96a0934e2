package paillier

import (
	"fmt"
	"math/big"
)

// The naive references the engine paths are pinned against, kept in the
// test files since the differential tests, FuzzPaillierEngineVsNaive and
// the engine-vs-naive benchmarks are their only callers.

// DecryptNaive is the retained naive reference for Decrypt: one
// exponentiation by λ modulo N², then L and μ. The differential tests pin
// Decrypt's CRT path to it bit-for-bit on unit ciphertexts.
func (sk *PrivateKey) DecryptNaive(c *Ciphertext) (*big.Int, error) {
	if c == nil || c.C == nil || c.C.Sign() <= 0 || c.C.Cmp(sk.N2) >= 0 {
		return nil, fmt.Errorf("%w: malformed ciphertext", ErrDecryption)
	}
	u := new(big.Int).Exp(c.C, sk.Lambda, sk.N2)
	m := u.Sub(u, one) // L(u) = (u − 1) / N
	m.Div(m, sk.N)
	m.Mul(m, sk.Mu)
	m.Mod(m, sk.N)
	return m, nil
}

// EncryptWithNonceNaive is the retained naive reference for
// EncryptWithNonce: (1+N)^m computed by a full big.Int.Exp over the
// log₂N-bit exponent m. The differential tests and
// FuzzPaillierEngineVsNaive pin the closed form 1 + mN to it bit-for-bit.
func (pk *PublicKey) EncryptWithNonceNaive(m, r *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		// The message itself stays out of the error: callers wrap errors
		// into logs and board posts, and m is plaintext.
		return nil, fmt.Errorf("%w: message outside [0, N)", ErrMessageRange)
	}
	onePlusN := new(big.Int).Add(pk.N, one)
	gm := new(big.Int).Exp(onePlusN, m, pk.N2)
	rn := new(big.Int).Exp(r, pk.N, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}
