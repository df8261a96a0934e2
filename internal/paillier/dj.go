package paillier

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"
)

// Damgård–Jurik generalization (the paper's reference [19]): plaintexts in
// Z_{N^s}, ciphertexts in Z*_{N^{s+1}},
//
//	c = (1+N)^m · r^{N^s} mod N^{s+1}.
//
// s = 1 recovers plain Paillier. Larger s enlarges the plaintext space
// without regenerating keys — which is how deployments of the protocol
// gain integer headroom for deep circuits (the homomorphic bounds in
// package tte grow with circuit depth).
//
// Encrypt draws r as h^ρ mod N for a short ρ and a public h derived from
// N (the Damgård–Jurik–Nielsen randomizer, engine.go), which turns
// r^{N^s} into a short power of a fixed base; EncryptWithNonce takes any
// r ∈ Z*_N. Both produce the ciphertext of the formula above.

// DJKey wraps a Paillier key for degree-s Damgård–Jurik operations.
type DJKey struct {
	// S is the generalization degree (plaintext space Z_{N^S}).
	S int
	// Base is the underlying Paillier key.
	Base *PrivateKey
	// Ns is N^S and Ns1 is N^(S+1), cached.
	Ns, Ns1 *big.Int
	// kFactInv caches k!^{-1} mod N^S for the dLog extraction.
	kFactInv []*big.Int

	// crtPre is the lazily built degree-S CRT precompute (engine.go). It
	// makes the key non-copyable; keys are only ever handled by pointer.
	crtPre atomic.Pointer[djState] //yosolint:secret derived from the prime factors: prime powers, group orders and the decryption exponent
	// rndPre is the lazily built encryption randomizer (engine.go): public,
	// a function of N and S alone.
	rndPre atomic.Pointer[randomizer]
}

// ErrDJDegree rejects invalid generalization degrees.
var ErrDJDegree = errors.New("paillier: Damgård–Jurik degree must be ≥ 1")

// NewDJKey builds a degree-s view of an existing key.
func NewDJKey(base *PrivateKey, s int) (*DJKey, error) {
	if s < 1 {
		return nil, fmt.Errorf("%w: s=%d", ErrDJDegree, s)
	}
	if base == nil {
		return nil, errors.New("paillier: nil base key")
	}
	ns := new(big.Int).Set(base.N)
	for i := 1; i < s; i++ {
		ns.Mul(ns, base.N)
	}
	ns1 := new(big.Int).Mul(ns, base.N)
	k := &DJKey{S: s, Base: base, Ns: ns, Ns1: ns1}
	// Precompute k!^{-1} mod N^s for k = 2..s (dLog's inner loop).
	k.kFactInv = make([]*big.Int, s+1)
	fact := big.NewInt(1)
	for i := 2; i <= s; i++ {
		fact.Mul(fact, big.NewInt(int64(i)))
		inv := new(big.Int).ModInverse(fact, ns)
		if inv == nil {
			return nil, fmt.Errorf("paillier: %d! not invertible mod N^s", i)
		}
		k.kFactInv[i] = inv
	}
	return k, nil
}

// Encrypt encrypts m ∈ [0, N^S) with fresh randomness: the closed-form
// message term times h_s^ρ for a short random ρ, read off the key's
// fixed-base randomizer table (engine.go).
func (k *DJKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	rz := k.randomizer()
	rho, err := rz.draw(random)
	if err != nil {
		return nil, err
	}
	return k.encryptRho(rz, m, rho)
}

// Decrypt recovers m: c^d ≡ (1+N)^m (mod N^{s+1}) for d ≡ 1 (mod N^s),
// d ≡ 0 (mod λ), then the discrete log of (1+N)^m is extracted with the
// Damgård–Jurik recursive algorithm. It runs on the CRT engine path
// (engine.go).
func (k *DJKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	return k.DecryptCRT(c)
}

// DLogOnePlusN extracts i from a = (1+N)^i mod N^{S+1} (Damgård–Jurik,
// Section 4.2). Exposed because the threshold combination in package tte
// needs the same extraction after exponent arithmetic.
func (k *DJKey) DLogOnePlusN(a *big.Int) (*big.Int, error) {
	n := k.Base.N
	i := new(big.Int)
	nPowJ := new(big.Int).Set(n) // N^j
	for j := 1; j <= k.S; j++ {
		nPowJ1 := new(big.Int).Mul(nPowJ, n) // N^{j+1}
		// t1 = L(a mod N^{j+1}) = ((a mod N^{j+1}) − 1) / N.
		t1 := new(big.Int).Mod(a, nPowJ1)
		t1.Sub(t1, big.NewInt(1))
		t1r := new(big.Int)
		t1.DivMod(t1, n, t1r)
		if t1r.Sign() != 0 {
			return nil, fmt.Errorf("%w: value is not a power of 1+N", ErrDecryption)
		}
		t2 := new(big.Int).Set(i)
		iter := new(big.Int).Set(i)
		for kk := 2; kk <= j; kk++ {
			iter.Sub(iter, big.NewInt(1))
			t2.Mul(t2, iter)
			t2.Mod(t2, nPowJ)
			// t1 -= t2 · N^{k-1} · (k!)^{-1} mod N^j
			term := new(big.Int).Exp(n, big.NewInt(int64(kk-1)), nPowJ)
			term.Mul(term, t2)
			term.Mul(term, k.kFactInv[kk])
			t1.Sub(t1, term)
			t1.Mod(t1, nPowJ)
		}
		i = t1
		nPowJ = nPowJ1
	}
	return i, nil
}

// Add returns a ciphertext of the plaintext sum.
func (k *DJKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, k.Ns1)
	return &Ciphertext{C: c}
}

// ScalarMul returns a ciphertext of s·m. Negative scalars use modular
// inversion of the ciphertext.
func (k *DJKey) ScalarMul(a *Ciphertext, s *big.Int) *Ciphertext {
	base := a.C
	exp := s
	if s.Sign() < 0 {
		base = new(big.Int).ModInverse(a.C, k.Ns1)
		exp = new(big.Int).Neg(s)
	}
	return &Ciphertext{C: new(big.Int).Exp(base, exp, k.Ns1)}
}

// ByteLen returns the wire size of degree-S ciphertexts.
func (k *DJKey) ByteLen() int { return (k.Ns1.BitLen() + 7) / 8 }
