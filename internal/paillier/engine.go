package paillier

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"yosompc/internal/modexp"
	"yosompc/internal/parallel"
)

// The Damgård–Jurik engine paths: CRT exponentiation over the prime
// power factorization of N^{s+1} with exponent reduction modulo the
// per-prime group orders, the closed-form binomial expansion of
// (1+N)^m, the fixed-base encryption randomizer h_s^ρ, and batched
// encryption over the shared worker pool. Every path here is pinned
// bit-for-bit, by the differential tests and FuzzPaillierEngineVsNaive,
// to a reference: plain modexp.ExpSigned, the DecryptNaive /
// EncryptWithNonceNaive of this package's test files, and — for the
// randomizer — EncryptWithNonce itself.
//
// Why CRT wins: Z*_{N^{s+1}} ≅ Z*_{p^{s+1}} × Z*_{q^{s+1}}, so an
// exponentiation splits into two at half the modulus size (≈4× cheaper
// each in schoolbook terms), and on each branch the exponent reduces
// modulo the group order p^s(p−1) resp. q^s(q−1) — decisive for the
// threshold partials, whose exponents 2Δ·d_i carry log₂(n!) ≈ n·log n
// extra bits that reduction removes entirely. Garner recombination
// returns the unique residue mod N^{s+1}, which is exactly the value
// the naive path computes, so the speedup is bit-invisible.

// djState is the degree-s CRT precomputation of one DJKey, held on the
// key itself (DJKey.crtPre).
type djState struct {
	ps1, qs1  *big.Int // p^{s+1}, q^{s+1}
	ordP      *big.Int // |Z*_{p^{s+1}}| = p^s·(p−1)
	ordQ      *big.Int // q^s·(q−1)
	qs1InvPs1 *big.Int // (q^{s+1})^{-1} mod p^{s+1}, Garner coefficient
	d         *big.Int // decryption exponent: ≡ 1 mod N^s, ≡ 0 mod λ
	dP, dQ    *big.Int // d reduced mod ordP / ordQ
	// kFactInvNs1[k] = (k!)^{-1} mod N^{s+1} for k = 1..s, the
	// closed-form binomial coefficients of (1+N)^m.
	kFactInvNs1 []*big.Int
}

// djCRT returns the CRT state of k, building it on first use. The build
// runs outside any lock (it contains modular inversions that cost real
// time at production moduli); concurrent first callers may duplicate the
// work and the compare-and-swap keeps one winner.
func (k *DJKey) djCRT() (*djState, error) {
	if st := k.crtPre.Load(); st != nil {
		return st, nil
	}
	sk := k.Base
	st := &djState{}
	st.ps1 = powTo(sk.P, k.S+1)
	st.qs1 = powTo(sk.Q, k.S+1)
	st.ordP = new(big.Int).Sub(sk.P, one)
	st.ordP.Mul(st.ordP, powTo(sk.P, k.S))
	st.ordQ = new(big.Int).Sub(sk.Q, one)
	st.ordQ.Mul(st.ordQ, powTo(sk.Q, k.S))
	st.qs1InvPs1 = new(big.Int).ModInverse(st.qs1, st.ps1)
	lamInv := new(big.Int).ModInverse(sk.Lambda, k.Ns)
	if st.qs1InvPs1 == nil || lamInv == nil {
		return nil, fmt.Errorf("paillier: Damgård–Jurik CRT precomputation failed")
	}
	st.d = new(big.Int).Mul(sk.Lambda, lamInv) // ≡ 0 mod λ, ≡ 1 mod N^s
	st.dP = new(big.Int).Mod(st.d, st.ordP)
	st.dQ = new(big.Int).Mod(st.d, st.ordQ)
	st.kFactInvNs1 = make([]*big.Int, k.S+1)
	fact := big.NewInt(1)
	for i := 1; i <= k.S; i++ {
		fact.Mul(fact, big.NewInt(int64(i)))
		inv := new(big.Int).ModInverse(fact, k.Ns1)
		if inv == nil {
			return nil, fmt.Errorf("paillier: %d! not invertible mod N^{s+1}", i)
		}
		st.kFactInvNs1[i] = inv
	}

	if !k.crtPre.CompareAndSwap(nil, st) {
		return k.crtPre.Load(), nil
	}
	return st, nil
}

func powTo(b *big.Int, e int) *big.Int {
	r := big.NewInt(1)
	for i := 0; i < e; i++ {
		r.Mul(r, b)
	}
	return r
}

// ExpSignedCRT computes base^exp mod N^{s+1} through the CRT split,
// reducing the exponent modulo the per-prime group orders. It is
// bit-identical to modexp.ExpSigned(base, exp, k.Ns1) — including the
// not-invertible error for negative exponents on non-unit bases — and
// several times faster, more as the exponent outgrows the group order
// (the threshold partials' 2Δ·d_i case). Bases sharing a factor with N
// take the plain path, where exponent reduction would be unsound.
func (k *DJKey) ExpSignedCRT(base, exp *big.Int) (*big.Int, error) {
	st, err := k.djCRT()
	if err != nil {
		return nil, err
	}
	bp := new(big.Int).Mod(base, st.ps1)
	bq := new(big.Int).Mod(base, st.qs1)
	if new(big.Int).Mod(bp, k.Base.P).Sign() == 0 || new(big.Int).Mod(bq, k.Base.Q).Sign() == 0 {
		return modexp.ExpSigned(base, exp, k.Ns1)
	}
	// Mod is Euclidean, so a negative exponent reduces into [0, ord)
	// directly — no inversion needed on the CRT path.
	ep := new(big.Int).Mod(exp, st.ordP)
	eq := new(big.Int).Mod(exp, st.ordQ)
	xp := bp.Exp(bp, ep, st.ps1)
	xq := bq.Exp(bq, eq, st.qs1)
	return st.garner(xp, xq), nil
}

// garner recombines per-prime residues into the unique value mod
// N^{s+1}: x = xq + q^{s+1}·((xp − xq)·(q^{s+1})^{-1} mod p^{s+1}).
func (st *djState) garner(xp, xq *big.Int) *big.Int {
	diff := new(big.Int).Sub(xp, xq)
	diff.Mul(diff, st.qs1InvPs1)
	diff.Mod(diff, st.ps1)
	x := diff.Mul(diff, st.qs1)
	return x.Add(x, xq)
}

// onePlusNToM computes (1+N)^m mod N^{s+1} in closed form: the binomial
// series Σ_{k=0..s} C(m,k)·N^k truncates at k = s because N^{s+1} ≡ 0,
// and C(m,k) mod N^{s+1} = m·(m−1)···(m−k+1)·(k!)^{-1} since k! ≤ s! is
// coprime to N. That is s small multiplications in place of a full
// exponentiation by an up to s·log₂N-bit exponent. Requires m ≥ 0.
func (k *DJKey) onePlusNToM(st *djState, m *big.Int) *big.Int {
	res := big.NewInt(1)
	fall := big.NewInt(1) // falling factorial m·(m−1)···
	mRed := new(big.Int).Mod(m, k.Ns1)
	nPow := big.NewInt(1)
	t := new(big.Int)
	for kk := 1; kk <= k.S; kk++ {
		t.Sub(mRed, big.NewInt(int64(kk-1)))
		fall.Mul(fall, t)
		fall.Mod(fall, k.Ns1)
		nPow.Mul(nPow, k.Base.N)
		term := new(big.Int).Mul(fall, st.kFactInvNs1[kk])
		term.Mul(term, nPow)
		res.Add(res, term)
	}
	return res.Mod(res, k.Ns1)
}

// DecryptCRT recovers the plaintext of c with per-prime exponentiations
// and the cached decryption exponent: the same plaintext as one
// exponentiation by d modulo N^{s+1} for every unit ciphertext
// (non-units take exactly that exponentiation) and ≈4× faster, before
// counting the cached inversions.
func (k *DJKey) DecryptCRT(c *Ciphertext) (*big.Int, error) {
	if c == nil || c.C == nil || c.C.Sign() <= 0 || c.C.Cmp(k.Ns1) >= 0 {
		return nil, fmt.Errorf("%w: malformed ciphertext", ErrDecryption)
	}
	st, err := k.djCRT()
	if err != nil {
		return nil, err
	}
	bp := new(big.Int).Mod(c.C, st.ps1)
	bq := new(big.Int).Mod(c.C, st.qs1)
	var a *big.Int
	if new(big.Int).Mod(bp, k.Base.P).Sign() == 0 || new(big.Int).Mod(bq, k.Base.Q).Sign() == 0 {
		a = new(big.Int).Exp(c.C, st.d, k.Ns1)
	} else {
		xp := bp.Exp(bp, st.dP, st.ps1)
		xq := bq.Exp(bq, st.dQ, st.qs1)
		a = st.garner(xp, xq)
	}
	return k.DLogOnePlusN(a)
}

// onePlusNTo is the range-checked message term (1+N)^m mod N^{s+1} every
// encryption starts from.
func (k *DJKey) onePlusNTo(m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(k.Ns) >= 0 {
		// The message itself stays out of the error: callers wrap errors
		// into logs and board posts, and m is plaintext.
		return nil, fmt.Errorf("%w: message outside [0, N^s)", ErrMessageRange)
	}
	st, err := k.djCRT()
	if err != nil {
		return nil, err
	}
	return k.onePlusNToM(st, m), nil
}

// EncryptWithNonce encrypts m with caller-supplied randomness r ∈ Z*_N:
// closed-form (1+N)^m times one full-width r^{N^s} exponentiation. It is
// the nonce-explicit primitive the plaintext-knowledge proof needs and
// the reference the randomizer path is pinned to: Encrypt's output is
// EncryptWithNonce(m, h^ρ mod N) bit for bit.
func (k *DJKey) EncryptWithNonce(m, r *big.Int) (*Ciphertext, error) {
	gm, err := k.onePlusNTo(m)
	if err != nil {
		return nil, err
	}
	c := gm.Mul(gm, new(big.Int).Exp(r, k.Ns, k.Ns1))
	return &Ciphertext{C: c.Mod(c, k.Ns1)}, nil
}

// randomizer is the fixed-base encryption randomizer of one DJKey, held
// on the key (DJKey.rndPre). Following Damgård–Jurik–Nielsen, the nonce
// of a fresh encryption is r = h^ρ mod N for a short ρ and a public
// h = −x² mod N, so its ciphertext factor r^{N^s} = (h^{N^s})^ρ mod
// N^{s+1} is a short power of one fixed base and comes off a comb table
// instead of a full-width exponentiation. x is expanded from N alone, so
// nothing is published that the key did not already publish. Hiding
// rests on short-exponent indistinguishability for a random public base
// in Z*_N, N a Blum integer — see DESIGN.md's substitution table.
type randomizer struct {
	h     *big.Int          // −x² mod N
	hs    *modexp.FixedBase // h^{N^s} mod N^{s+1}, over exponents below bound
	bound *big.Int          // 2^⌈|N|/2⌉, DJN's exponent length
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

// randomizer returns k's encryption randomizer, building it on first use
// the way djCRT builds the CRT state: outside any lock, one
// compare-and-swap winner. The build is one full-width exponentiation
// and one comb table, about two naive encryptions.
func (k *DJKey) randomizer() *randomizer {
	if rz := k.rndPre.Load(); rz != nil {
		return rz
	}
	n := k.Base.N
	x := randomizerBase(n)
	h := x.Mul(x, x)
	h.Neg(h).Mod(h, n)
	rhoBits := (n.BitLen() + 1) / 2
	rz := &randomizer{
		h:     h,
		hs:    modexp.NewFixedBase(new(big.Int).Exp(h, k.Ns, k.Ns1), k.Ns1, rhoBits),
		bound: new(big.Int).Lsh(one, uint(rhoBits)),
	}
	if !k.rndPre.CompareAndSwap(nil, rz) {
		return k.rndPre.Load()
	}
	return rz
}

// draw samples the short exponent ρ ← [0, 2^⌈|N|/2⌉). The bound is a
// power of two, so this reads a fixed number of bytes and never rejects.
func (rz *randomizer) draw(random io.Reader) (*big.Int, error) {
	rho, err := rand.Int(random, rz.bound)
	if err != nil {
		return nil, fmt.Errorf("paillier: sampling randomizer exponent: %w", err)
	}
	return rho, nil
}

// encryptRho is (1+N)^m · h_s^ρ mod N^{s+1}, h_s^ρ read off the table.
func (k *DJKey) encryptRho(rz *randomizer, m, rho *big.Int) (*Ciphertext, error) {
	gm, err := k.onePlusNTo(m)
	if err != nil {
		return nil, err
	}
	c := gm.Mul(gm, rz.hs.Exp(rho))
	return &Ciphertext{C: c.Mod(c, k.Ns1)}, nil
}

// EncryptMany encrypts a batch of messages over the shared worker pool.
// Randomness is sampled serially before any worker starts, so the
// output is bit-identical for every worker count (including the fully
// serial workers=1 path) given the same random stream.
func (k *DJKey) EncryptMany(random io.Reader, ms []*big.Int, workers int) ([]*Ciphertext, error) {
	rz := k.randomizer()
	rhos := make([]*big.Int, len(ms))
	for i := range ms {
		rho, err := rz.draw(random)
		if err != nil {
			return nil, err
		}
		rhos[i] = rho
	}
	out := make([]*Ciphertext, len(ms))
	err := parallel.For(context.Background(), workers, len(ms), func(i int) error {
		ct, err := k.encryptRho(rz, ms[i], rhos[i])
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
