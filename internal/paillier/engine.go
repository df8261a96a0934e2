package paillier

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"math/bits"

	"yosompc/internal/modexp"
	"yosompc/internal/parallel"
)

// The engine paths: CRT exponentiation over the prime-square
// factorization of N² with exponent reduction modulo the per-prime group
// orders, the fixed-base encryption randomizer h_N^ρ, and batched
// encryption over the shared worker pool. Every path here is pinned
// bit-for-bit, by the differential tests and FuzzPaillierEngineVsNaive,
// to a reference: plain modexp.ExpSigned, the DecryptNaive /
// EncryptWithNonceNaive of this package's test files, and — for the
// randomizer — the tests' EncryptWithNonce.
//
// Why CRT wins: Z*_{N²} ≅ Z*_{p²} × Z*_{q²}, so an exponentiation splits
// into two at half the modulus size (≈4× cheaper each in schoolbook
// terms), and on each branch the exponent reduces modulo the group order
// p(p−1) resp. q(q−1) — decisive for the threshold partials, whose
// exponents 2Δ·d_i carry log₂(n!) ≈ n·log n extra bits that reduction
// removes entirely. Garner recombination returns the unique residue
// mod N², which is exactly the value the naive path computes, so the
// speedup is bit-invisible.

// crtState is the CRT precomputation of one PrivateKey (PrivateKey.crt).
type crtState struct {
	p2, q2  *big.Int // p², q²
	ordP    *big.Int // |Z*_{p²}| = p·(p−1)
	ordQ    *big.Int // q·(q−1)
	q2InvP2 *big.Int // (q²)^{-1} mod p², Garner coefficient
	d       *big.Int // decryption exponent λ·μ: ≡ 1 mod N, ≡ 0 mod λ
	dP, dQ  *big.Int // d reduced mod ordP / ordQ
}

// newCRTState precomputes the CRT state of the key with distinct prime
// factors p, q, λ = lcm(p−1, q−1) and μ = λ^{-1} mod N.
func newCRTState(p, q, lambda, mu *big.Int) *crtState {
	st := &crtState{p2: new(big.Int).Mul(p, p), q2: new(big.Int).Mul(q, q)}
	st.ordP = new(big.Int).Sub(p, one)
	st.ordP.Mul(st.ordP, p)
	st.ordQ = new(big.Int).Sub(q, one)
	st.ordQ.Mul(st.ordQ, q)
	st.q2InvP2 = new(big.Int).ModInverse(st.q2, st.p2) // distinct primes: q² is a unit mod p²
	st.d = new(big.Int).Mul(lambda, mu)
	st.dP = new(big.Int).Mod(st.d, st.ordP)
	st.dQ = new(big.Int).Mod(st.d, st.ordQ)
	return st
}

// split reduces x into Z_{p²} × Z_{q²}. unit is false when x shares a
// factor with N; those take the plain path, where exponent reduction
// would be unsound.
func (sk *PrivateKey) split(x *big.Int) (xp, xq *big.Int, unit bool) {
	xp = new(big.Int).Mod(x, sk.crt.p2)
	xq = new(big.Int).Mod(x, sk.crt.q2)
	return xp, xq, new(big.Int).Mod(xp, sk.P).Sign() != 0 && new(big.Int).Mod(xq, sk.Q).Sign() != 0
}

// garner recombines per-prime residues into the unique value mod N²:
// x = xq + q²·((xp − xq)·(q²)^{-1} mod p²).
func (st *crtState) garner(xp, xq *big.Int) *big.Int {
	diff := new(big.Int).Sub(xp, xq)
	diff.Mul(diff, st.q2InvP2)
	diff.Mod(diff, st.p2)
	x := diff.Mul(diff, st.q2)
	return x.Add(x, xq)
}

// ExpSignedCRT computes base^exp mod N² through the CRT split, reducing
// the exponent modulo the per-prime group orders. It is bit-identical to
// modexp.ExpSigned(base, exp, N²) — including the not-invertible error
// for negative exponents on non-unit bases — and several times faster,
// more as the exponent outgrows the group order (the threshold partials'
// 2Δ·d_i case).
func (sk *PrivateKey) ExpSignedCRT(base, exp *big.Int) (*big.Int, error) {
	st := sk.crt
	bp, bq, unit := sk.split(base)
	if !unit {
		return modexp.ExpSigned(base, exp, sk.N2)
	}
	// Mod is Euclidean, so a negative exponent reduces into [0, ord)
	// directly — no inversion needed on the CRT path.
	ep := new(big.Int).Mod(exp, st.ordP)
	eq := new(big.Int).Mod(exp, st.ordQ)
	return st.garner(bp.Exp(bp, ep, st.p2), bq.Exp(bq, eq, st.q2)), nil
}

// Decrypt recovers m: c^d ≡ (1+N)^m (mod N²) for the decryption exponent
// d, then m = L(c^d). c^d comes from per-prime exponentiations by the
// cached reduced exponents: the same value as one exponentiation by d
// modulo N² (which non-units take) and ≈4× faster. A nil, non-positive
// or ≥ N² ciphertext is ErrDecryption.
func (sk *PrivateKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	if c == nil || c.C == nil || c.C.Sign() <= 0 || c.C.Cmp(sk.N2) >= 0 {
		return nil, fmt.Errorf("%w: malformed ciphertext", ErrDecryption)
	}
	st := sk.crt
	cp, cq, unit := sk.split(c.C)
	if !unit {
		return sk.L(new(big.Int).Exp(c.C, st.d, sk.N2))
	}
	return sk.L(st.garner(cp.Exp(cp, st.dP, st.p2), cq.Exp(cq, st.dQ, st.q2)))
}

// randomizer is the fixed-base encryption randomizer of one PublicKey,
// held on the key (PublicKey.rnd). Following Damgård–Jurik–Nielsen, the
// nonce of a fresh encryption is r = h^ρ mod N for a short ρ and a public
// h = −x² mod N, so its ciphertext factor r^N = (h^N)^ρ mod N² is a short
// power of one fixed base and comes off a comb table instead of a
// full-width exponentiation. x is expanded from N alone, so nothing is
// published that the key did not already publish. Hiding rests on
// short-exponent indistinguishability for a random public base in Z*_N,
// N a Blum integer — see DESIGN.md's substitution table.
type randomizer struct {
	h    *big.Int          // −x² mod N
	hN   *modexp.FixedBase // h^N mod N², over exponents below 2^bits
	bits int               // ⌈|N|/2⌉, DJN's exponent length
}

// randomizerBase expands N into x ∈ Z*_N: SHA-256 in counter mode under
// a domain label, 128 bits longer than N so the reduction is uniform to
// within 2^−128, retried under the next counter on a non-unit.
func randomizerBase(n *big.Int) *big.Int {
	nb := n.Bytes()
	need := len(nb) + 16
	x, g := new(big.Int), new(big.Int)
	for try := uint32(0); ; try++ {
		buf := make([]byte, 0, need+sha256.Size)
		for blk := uint32(0); len(buf) < need; blk++ {
			d := sha256.New()
			d.Write([]byte("yosompc/paillier/djn-randomizer-base"))
			d.Write(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, try), blk))
			d.Write(nb)
			buf = d.Sum(buf)
		}
		x.Mod(x.SetBytes(buf[:need]), n)
		if g.GCD(nil, nil, x, n).Cmp(one) == 0 {
			return x
		}
	}
}

// randomizer returns pk's encryption randomizer, building it on first
// use. The build runs outside any lock (one full-width exponentiation and
// one comb table, about two naive encryptions); concurrent first callers
// may duplicate the work and the compare-and-swap keeps one winner.
func (pk *PublicKey) randomizer() *randomizer {
	if rz := pk.rnd.Load(); rz != nil {
		return rz
	}
	x := randomizerBase(pk.N)
	h := x.Mul(x, x)
	h.Neg(h).Mod(h, pk.N)
	rhoBits := (pk.N.BitLen() + 1) / 2
	rz := &randomizer{
		h:    h,
		hN:   modexp.NewFixedBase(new(big.Int).Exp(h, pk.N, pk.N2), pk.N2, rhoBits),
		bits: rhoBits,
	}
	if !pk.rnd.CompareAndSwap(nil, rz) {
		return pk.rnd.Load()
	}
	return rz
}

// nonces is a batch's randomizer exponents, backed by one word slab. With
// its public ciphertext a ρ gives back the plaintext (c·h_N^(−ρ) = 1 + mN),
// so it is as secret as the message: the slab is wiped as soon as the
// batch is encrypted.
type nonces struct {
	rho   []big.Int
	words []big.Word
}

// wipe zeroes the exponents' words and detaches the integers from them.
func (ns *nonces) wipe() {
	clear(ns.words)
	clear(ns.rho)
}

// draw samples count short exponents ρ ← [0, 2^bits) into ns, reading the
// stream exactly as crypto/rand.Int(random, 2^bits) would for each: the
// bound is a power of two, so a ρ is a fixed number of bytes with the top
// one masked, never rejected. The byte buffer is wiped too.
func (rz *randomizer) draw(ns *nonces, random io.Reader, count int) error {
	const wordBytes = bits.UintSize / 8
	nb := (rz.bits + 7) / 8
	nw := (nb + wordBytes - 1) / wordBytes
	buf := make([]byte, nb)
	defer clear(buf)
	ns.rho = make([]big.Int, count)
	ns.words = make([]big.Word, count*nw)
	for i := range ns.rho {
		if _, err := io.ReadFull(random, buf); err != nil {
			return fmt.Errorf("paillier: sampling randomizer exponent: %w", err)
		}
		buf[0] &= byte(1<<((rz.bits-1)%8+1) - 1)
		w := ns.words[i*nw : (i+1)*nw]
		for k, b := range buf { // big-endian bytes into little-endian words
			at := nb - 1 - k
			w[at/wordBytes] |= big.Word(b) << (8 * (at % wordBytes))
		}
		ns.rho[i].SetBits(w)
	}
	return nil
}

// Encrypt encrypts m ∈ [0, N) with fresh randomness: the message term
// 1 + mN times h_N^ρ for a short random ρ, read off the key's fixed-base
// randomizer table. It is EncryptMany's batch of one.
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	cts, err := pk.encryptMany(random, []*big.Int{m}, 1, new(nonces))
	if err != nil {
		return nil, err
	}
	return cts[0], nil
}

// encryptRho is (1+N)^m · h_N^ρ mod N², h_N^ρ read off the table.
func (pk *PublicKey) encryptRho(rz *randomizer, m, rho *big.Int) (*Ciphertext, error) {
	gm, err := pk.onePlusNTo(m)
	if err != nil {
		return nil, err
	}
	c := gm.Mul(gm, rz.hN.Exp(rho))
	return &Ciphertext{C: c.Mod(c, pk.N2)}, nil
}

// EncryptMany encrypts a batch of messages over the shared worker pool.
// Randomness is sampled serially before any worker starts, so the
// output is bit-identical for every worker count (including the fully
// serial workers=1 path) given the same random stream.
func (pk *PublicKey) EncryptMany(random io.Reader, ms []*big.Int, workers int) ([]*Ciphertext, error) {
	return pk.encryptMany(random, ms, workers, new(nonces))
}

// encryptMany is EncryptMany drawing the batch's exponents into ns, which
// it wipes before it returns, whether or not the batch encrypted.
func (pk *PublicKey) encryptMany(random io.Reader, ms []*big.Int, workers int, ns *nonces) ([]*Ciphertext, error) {
	rz := pk.randomizer()
	defer ns.wipe()
	if err := rz.draw(ns, random, len(ms)); err != nil {
		return nil, err
	}
	out := make([]*Ciphertext, len(ms))
	err := parallel.For(context.Background(), workers, len(ms), func(i int) error {
		ct, err := pk.encryptRho(rz, ms[i], &ns.rho[i])
		if err != nil {
			return err
		}
		out[i] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
