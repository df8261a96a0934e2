// Package tte implements the linearly homomorphic key-rerandomizable
// threshold encryption scheme of the paper's Section 4.1, with the
// eight-algorithm API (TKGen, TEnc, TPDec, TDec, TEval, TKRes, TKRec,
// SimTPDec).
//
// Two interchangeable backends are provided:
//
//   - Threshold: real threshold Paillier following Damgård–Jurik/Shoup.
//     The decryption exponent d (d ≡ 0 mod m, d ≡ 1 mod N for safe-prime
//     modulus N with m = p'q') is Shamir-shared; partial decryptions are
//     c^(2Δ·d_i) with Δ = n!, and combination uses Δ-scaled integer
//     Lagrange coefficients so that no modular inversion modulo the
//     secret group order is ever needed. Key resharing (TKRes/TKRec)
//     works over the integers with statistical masking; each resharing
//     epoch multiplies the effective secret by Δ, which TDec divides
//     out (plaintexts are recovered as L(c')·(4Δ²·Δ^epoch)⁻¹ mod N).
//
//   - Sim: an ideal-functionality backend with the same message shapes
//     and a byte-size model matching a real deployment's parameters.
//     It exists so that communication sweeps can run at committee sizes
//     (thousands of roles) where big-integer crypto would dominate
//     wall-clock without changing any measured byte count.
//
// Plaintexts are non-negative integers. Every ciphertext carries a public
// *plaintext magnitude bound* maintained through homomorphic evaluation;
// the MPC layer works over F_p embedded in Z_N and relies on bounds staying
// below N so that integer arithmetic never wraps modulo N (wrapping would
// corrupt values mod p). TEval accepts only non-negative coefficients for
// the same reason; the protocol encodes subtraction as multiplication by
// (p - x), keeping magnitudes polynomial in p.
package tte

import (
	"errors"
	"math/big"
)

// Ciphertext is an opaque threshold-encryption ciphertext.
type Ciphertext interface {
	// Bound returns a public upper bound on the integer plaintext.
	Bound() *big.Int
	// Size returns the ciphertext's size in bytes on the wire.
	Size() int
}

// KeyShare is one party's share of the threshold decryption key.
type KeyShare interface {
	// Index returns the party index in 1..n.
	Index() int
	// Epoch returns how many resharings this share has been through.
	Epoch() int
	// Size returns the share's size in bytes on the wire.
	Size() int
}

// PartialDec is one party's partial decryption of a ciphertext.
type PartialDec interface {
	// Index returns the producing party's index.
	Index() int
	// Epoch returns the key epoch the partial was produced under.
	Epoch() int
	// Size returns the partial's size in bytes on the wire.
	Size() int
}

// SubShare is one resharing message: party i's contribution to party j's
// next-epoch key share.
type SubShare interface {
	// From returns the resharing party's index.
	From() int
	// To returns the receiving party's index.
	To() int
	// Size returns the subshare's size in bytes on the wire.
	Size() int
}

// PublicKey is the threshold public key together with the committee
// parameters it was generated for.
type PublicKey interface {
	// N returns the committee size the key was dealt to.
	N() int
	// T returns the reconstruction threshold: any T+1 partial
	// decryptions suffice, any T reveal nothing.
	T() int
	// CiphertextSize returns the wire size of a fresh ciphertext.
	CiphertextSize() int
	// MaxPlaintext returns the largest plaintext bound TEval accepts.
	MaxPlaintext() *big.Int
}

// Scheme is the paper's TE API. Implementations must be safe for
// concurrent use after key generation.
type Scheme interface {
	// Name identifies the backend ("threshold-paillier" or "sim").
	Name() string

	// KeyGen (TKGen) deals a key for an n-party committee with threshold t.
	KeyGen(n, t int) (PublicKey, []KeyShare, error)

	// Encrypt (TEnc) encrypts a non-negative integer m with bound ≥ m.
	// The bound becomes part of the ciphertext's public metadata.
	Encrypt(pk PublicKey, m, bound *big.Int) (Ciphertext, error)

	// Eval (TEval) returns a ciphertext of Σ coeffs[i]·m_i. Coefficients
	// must be non-negative; the result's bound is Σ coeffs[i]·bound_i.
	Eval(pk PublicKey, cts []Ciphertext, coeffs []*big.Int) (Ciphertext, error)

	// PartialDecrypt (TPDec) produces party sh's partial decryption of ct.
	PartialDecrypt(pk PublicKey, sh KeyShare, ct Ciphertext) (PartialDec, error)

	// Combine (TDec) recovers the integer plaintext from > t partial
	// decryptions. The caller reduces modulo the MPC field if needed.
	Combine(pk PublicKey, ct Ciphertext, parts []PartialDec) (*big.Int, error)

	// Reshare (TKRes) produces the n resharing messages of party sh,
	// one per next-epoch party.
	Reshare(pk PublicKey, sh KeyShare) ([]SubShare, error)

	// RecoverShare (TKRec) assembles party index's next-epoch share from
	// > t subshares addressed to it.
	RecoverShare(pk PublicKey, index int, subs []SubShare) (KeyShare, error)
}

// BatchEncrypter is the optional batched-encryption interface: backends
// that can amortize per-ciphertext work (randomizer exponentiations over
// the worker pool, shared key state) implement it. The contract matches n
// independent Encrypt calls exactly — same validation, same ciphertext
// distribution — and the output must be independent of the worker
// count. All messages share one bound.
type BatchEncrypter interface {
	// EncryptMany encrypts every ms[i] with the shared bound using at
	// most workers goroutines (values < 1 mean the default pool size).
	EncryptMany(pk PublicKey, ms []*big.Int, bound *big.Int, workers int) ([]Ciphertext, error)
}

// EncryptAll encrypts a batch through the scheme's BatchEncrypter when
// it has one, falling back to sequential Encrypt calls otherwise.
// Drivers call this instead of type-asserting at every site.
func EncryptAll(s Scheme, pk PublicKey, ms []*big.Int, bound *big.Int, workers int) ([]Ciphertext, error) {
	if be, ok := s.(BatchEncrypter); ok {
		return be.EncryptMany(pk, ms, bound, workers)
	}
	out := make([]Ciphertext, len(ms))
	for i, m := range ms {
		ct, err := s.Encrypt(pk, m, bound)
		if err != nil {
			return nil, err
		}
		out[i] = ct
	}
	return out, nil
}

// Simulator is the partial-decryption simulatability hook (SimTPDec).
// Only backends holding dealer secrets implement it; it exists to make the
// paper's Definition 2 testable, not for protocol execution.
type Simulator interface {
	// SimPartialDecrypt produces partial decryptions for the honest
	// indices that, combined with partial decryptions derived from the
	// given corrupt shares, make Combine output target.
	SimPartialDecrypt(pk PublicKey, ct Ciphertext, target *big.Int,
		corrupt []KeyShare, honest []int) ([]PartialDec, error)
}

// Errors shared by backends.
var (
	ErrTooFewPartials  = errors.New("tte: not enough partial decryptions")
	ErrNegativeCoeff   = errors.New("tte: negative coefficient in Eval")
	ErrPlaintextTooBig = errors.New("tte: plaintext bound exceeds key capacity")
	// ErrPlaintextRange rejects a plaintext outside [0, bound]. The message
	// is constant on every backend: the rejected value is a secret.
	ErrPlaintextRange   = errors.New("tte: plaintext outside [0, bound]")
	ErrWrongKey         = errors.New("tte: object belongs to a different key or backend")
	ErrEpochMismatch    = errors.New("tte: mixed key epochs")
	ErrDuplicateIndex   = errors.New("tte: duplicate party index")
	ErrMalformedMessage = errors.New("tte: malformed message")
)
