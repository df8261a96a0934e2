package paillier

import (
	"errors"
	"fmt"
	"math/big"
)

// The naive references the engine paths are pinned against, moved here
// unchanged from paillier.go and dj.go once the differential tests,
// FuzzPaillierEngineVsNaive and the engine-vs-naive benchmarks were
// their only callers.

// DecryptNaive is the retained naive reference for Decrypt: one
// exponentiation by λ modulo N². The differential tests pin DecryptCRT
// to it bit-for-bit on unit ciphertexts.
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
// EncryptWithNonce: (1+N)^m computed by a full big.Int.Exp over the up
// to s·log₂N-bit exponent m. The differential tests and
// FuzzPaillierEngineVsNaive pin the closed-form engine path to it
// bit-for-bit.
func (k *DJKey) EncryptWithNonceNaive(m, r *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(k.Ns) >= 0 {
		// The message itself stays out of the error: callers wrap errors
		// into logs and board posts, and m is plaintext.
		return nil, fmt.Errorf("%w: message outside [0, N^s)", ErrMessageRange)
	}
	onePlusN := new(big.Int).Add(k.Base.N, big.NewInt(1))
	gm := new(big.Int).Exp(onePlusN, m, k.Ns1)
	rn := new(big.Int).Exp(r, k.Ns, k.Ns1)
	c := gm.Mul(gm, rn)
	c.Mod(c, k.Ns1)
	return &Ciphertext{C: c}, nil
}

// DecryptNaive is the retained naive reference for Decrypt: the
// decryption exponent is rebuilt per call and applied in one
// exponentiation modulo N^{s+1}.
func (k *DJKey) DecryptNaive(c *Ciphertext) (*big.Int, error) {
	if c == nil || c.C == nil || c.C.Sign() <= 0 || c.C.Cmp(k.Ns1) >= 0 {
		return nil, fmt.Errorf("%w: malformed ciphertext", ErrDecryption)
	}
	// d ≡ 1 mod N^s, d ≡ 0 mod λ via CRT (gcd(λ, N^s) = 1).
	lamInv := new(big.Int).ModInverse(k.Base.Lambda, k.Ns)
	if lamInv == nil {
		return nil, errors.New("paillier: λ not invertible mod N^s")
	}
	d := new(big.Int).Mul(k.Base.Lambda, lamInv) // ≡ 0 mod λ, ≡ 1 mod N^s
	a := new(big.Int).Exp(c.C, d, k.Ns1)
	return k.DLogOnePlusN(a)
}
