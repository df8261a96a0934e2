// Package paillier implements the Paillier additively homomorphic
// encryption scheme over math/big, including the safe-prime key variant
// required by the threshold extension in package tte.
//
// Ciphertexts encrypt messages m ∈ Z_N as c = (1+N)^m · r^N mod N².
// The scheme is additively homomorphic: multiplying ciphertexts adds
// plaintexts, and exponentiation by a scalar multiplies the plaintext.
// Everything that needs only N — encryption and L — is a PublicKey
// method; Decrypt and ExpSignedCRT use the factorization and are
// PrivateKey methods. The homomorphic operations are plain products and
// powers mod N², which package tte computes itself.
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

	// rnd is the lazily built encryption randomizer (engine.go): public,
	// a function of N alone. It makes the key non-copyable; keys are only
	// ever handled by pointer.
	rnd atomic.Pointer[randomizer]
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

	// crt is the CRT precomputation Decrypt and ExpSignedCRT run on
	// (engine.go), built with the key.
	crt *crtState //yosolint:secret derived from the prime factors: prime squares, group orders and the decryption exponent
}

// Ciphertext is a Paillier ciphertext, an element of Z*_{N²}.
type Ciphertext struct {
	// C is the ciphertext value in [0, N²).
	C *big.Int
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
		crt:    newCRTState(p, q, lambda, mu),
	}, nil
}

// onePlusNTo is the range-checked message term (1+N)^m = 1 + mN mod N²
// every encryption starts from.
func (pk *PublicKey) onePlusNTo(m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		// The message itself stays out of the error: callers wrap errors
		// into logs and board posts, and m is plaintext.
		return nil, fmt.Errorf("%w: message outside [0, N)", ErrMessageRange)
	}
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, one)
	return gm.Mod(gm, pk.N2), nil
}

// L extracts m from a = (1+N)^m mod N²: (1+N)^m = 1 + mN, so m is
// L(a) = (a − 1)/N. An a ≢ 1 (mod N) is not a power of 1+N and is
// ErrDecryption. Exposed because the threshold combination in package tte
// needs the same extraction after exponent arithmetic.
func (pk *PublicKey) L(a *big.Int) (*big.Int, error) {
	m := new(big.Int).Mod(a, pk.N2)
	m.Sub(m, one)
	r := new(big.Int)
	if m.DivMod(m, pk.N, r); r.Sign() != 0 {
		return nil, fmt.Errorf("%w: value is not a power of 1+N", ErrDecryption)
	}
	return m, nil
}
