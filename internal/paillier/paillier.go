// Package paillier implements the Paillier additively homomorphic
// encryption scheme over math/big, including the safe-prime key variant
// required by the threshold extension in package tte.
//
// Ciphertexts encrypt messages m ∈ Z_N as c = (1+N)^m · r^N mod N².
// The scheme is additively homomorphic: multiplying ciphertexts adds
// plaintexts, and exponentiation by a scalar multiplies the plaintext.
// PublicKey/PrivateKey are the s = 1 key material and the full-width-nonce
// encryption the NIZK layer proves statements about; the homomorphic
// operations and decryption live on DJKey (dj.go), of which plain
// Paillier is the degree-1 case.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"
)

var one = big.NewInt(1)

// ErrDecryption is returned when a ciphertext fails structural checks.
var ErrDecryption = errors.New("paillier: decryption failed")

// ErrMessageRange is returned when a plaintext is outside [0, N).
var ErrMessageRange = errors.New("paillier: message out of range")

// PublicKey is a Paillier public key.
type PublicKey struct {
	// N is the modulus p·q.
	N *big.Int
	// N2 is N², cached.
	N2 *big.Int
}

// PrivateKey is a Paillier private key. For safe-prime keys, M = p'·q'
// (with p = 2p'+1, q = 2q'+1) is populated; it is the order component used
// by the threshold extension.
type PrivateKey struct {
	PublicKey
	// P and Q are the prime factors of N.
	P, Q *big.Int
	// Lambda is lcm(P-1, Q-1).
	Lambda *big.Int
	// Mu is Lambda^{-1} mod N.
	Mu *big.Int
	// M is p'·q' for safe-prime keys, nil otherwise.
	M *big.Int

	// dj is the lazily built degree-1 Damgård–Jurik view Decrypt runs on.
	// It makes the key non-copyable; keys are only ever handled by pointer.
	dj atomic.Pointer[DJKey]
}

// Ciphertext is a Paillier ciphertext, an element of Z*_{N²}.
type Ciphertext struct {
	// C is the ciphertext value in [0, N²).
	C *big.Int
}

// GenerateKey creates a Paillier key with a modulus of the given bit length
// from two random primes. Keys produced this way support Enc/Dec and the
// homomorphic operations but not the threshold extension.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, fmt.Errorf("paillier: modulus of %d bits is too small", bits)
	}
	p, err := rand.Prime(random, bits/2)
	if err != nil {
		return nil, fmt.Errorf("paillier: generating p: %w", err)
	}
	q, err := rand.Prime(random, bits-bits/2)
	if err != nil {
		return nil, fmt.Errorf("paillier: generating q: %w", err)
	}
	if p.Cmp(q) == 0 {
		return nil, errors.New("paillier: p == q")
	}
	return keyFromPrimes(p, q, nil)
}

// GenerateSafeKey creates a key whose factors are safe primes p = 2p'+1,
// q = 2q'+1. Safe primes make Z*_{N²} have the clean group structure that
// the Shoup-style threshold decryption in package tte relies on. Safe-prime
// search is expensive; tests should prefer FixedTestKey.
func GenerateSafeKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, fmt.Errorf("paillier: modulus of %d bits is too small", bits)
	}
	p, pp, err := safePrime(random, bits/2)
	if err != nil {
		return nil, err
	}
	for {
		q, qp, err := safePrime(random, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) != 0 {
			m := new(big.Int).Mul(pp, qp)
			return keyFromPrimes(p, q, m)
		}
	}
}

// safePrime returns a safe prime sp = 2p'+1 of the given bit length along
// with p'.
func safePrime(random io.Reader, bits int) (sp, sophie *big.Int, err error) {
	for {
		p, err := rand.Prime(random, bits-1)
		if err != nil {
			return nil, nil, fmt.Errorf("paillier: generating safe prime: %w", err)
		}
		cand := new(big.Int).Lsh(p, 1)
		cand.Add(cand, one)
		if cand.ProbablyPrime(30) {
			return cand, p, nil
		}
	}
}

// NewKeyFromSafePrimes assembles a key from externally supplied safe primes.
// Both arguments must be safe primes; this is checked probabilistically.
func NewKeyFromSafePrimes(p, q *big.Int) (*PrivateKey, error) {
	pp := sophieOf(p)
	qp := sophieOf(q)
	if pp == nil || qp == nil {
		return nil, errors.New("paillier: supplied primes are not safe primes")
	}
	if p.Cmp(q) == 0 {
		return nil, errors.New("paillier: p == q")
	}
	return keyFromPrimes(p, q, new(big.Int).Mul(pp, qp))
}

func sophieOf(p *big.Int) *big.Int {
	if !p.ProbablyPrime(30) {
		return nil
	}
	s := new(big.Int).Sub(p, one)
	s.Rsh(s, 1)
	if !s.ProbablyPrime(30) {
		return nil
	}
	return s
}

func keyFromPrimes(p, q, m *big.Int) (*PrivateKey, error) {
	n := new(big.Int).Mul(p, q)
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
	lambda := new(big.Int).Mul(pm1, qm1)
	lambda.Div(lambda, gcd)
	mu := new(big.Int).ModInverse(lambda, n)
	if mu == nil {
		return nil, errors.New("paillier: lambda not invertible mod N")
	}
	return &PrivateKey{
		PublicKey: PublicKey{N: n, N2: new(big.Int).Mul(n, n)},
		P:         p, Q: q,
		Lambda: lambda,
		Mu:     mu,
		M:      m,
	}, nil
}

// RandomUnit samples r uniformly from Z*_N.
func (pk *PublicKey) RandomUnit(random io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: sampling unit: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Encrypt encrypts m ∈ [0, N) with fresh randomness.
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	r, err := pk.RandomUnit(random)
	if err != nil {
		return nil, err
	}
	return pk.EncryptWithNonce(m, r)
}

// EncryptWithNonce encrypts m with the caller-supplied randomness r ∈ Z*_N:
// the textbook s = 1 encryption Encrypt draws its nonce for.
func (pk *PublicKey) EncryptWithNonce(m, r *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		// The message itself stays out of the error: callers wrap errors
		// into logs and board posts, and m is plaintext.
		return nil, fmt.Errorf("%w: message outside [0, N)", ErrMessageRange)
	}
	// (1+N)^m = 1 + mN mod N².
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	rn := new(big.Int).Exp(r, pk.N, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

// Decrypt recovers the plaintext of c. Plain Paillier is Damgård–Jurik at
// s = 1, so this is DJKey.Decrypt on a degree-1 view of the key (the CRT
// engine path, engine.go), built on first use. A nil, non-positive or
// ≥ N² ciphertext is ErrDecryption.
func (sk *PrivateKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	k := sk.dj.Load()
	if k == nil {
		var err error
		if k, err = NewDJKey(sk, 1); err != nil {
			return nil, err
		}
		if !sk.dj.CompareAndSwap(nil, k) {
			k = sk.dj.Load()
		}
	}
	return k.Decrypt(c)
}
