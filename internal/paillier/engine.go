package paillier

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"yosompc/internal/modexp"
	"yosompc/internal/parallel"
)

// The Damgård–Jurik engine paths: CRT exponentiation over the prime
// power factorization of N^{s+1} with exponent reduction modulo the
// per-prime group orders, the closed-form binomial expansion of
// (1+N)^m, and batched encryption over the shared worker pool. Every
// path here is pinned bit-for-bit, by the differential tests and
// FuzzPaillierEngineVsNaive, to a naive reference: plain
// modexp.ExpSigned, and the DecryptNaive / EncryptWithNonceNaive of this
// package's test files.
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
// work and the compare-and-swap keeps one winner — the crtState pattern
// in crt.go.
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

// EncryptWithNonce encrypts m with caller-supplied randomness r ∈ Z*_N
// through the engine paths: closed-form (1+N)^m plus one r^{N^s}
// exponentiation — the ciphertext a full-width (1+N)^m would give.
func (k *DJKey) EncryptWithNonce(m, r *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(k.Ns) >= 0 {
		// The message itself stays out of the error: callers wrap errors
		// into logs and board posts, and m is plaintext.
		return nil, fmt.Errorf("%w: message outside [0, N^s)", ErrMessageRange)
	}
	st, err := k.djCRT()
	if err != nil {
		return nil, err
	}
	gm := k.onePlusNToM(st, m)
	rn := new(big.Int).Exp(r, k.Ns, k.Ns1)
	c := gm.Mul(gm, rn)
	c.Mod(c, k.Ns1)
	return &Ciphertext{C: c}, nil
}

// EncryptMany encrypts a batch of messages over the shared worker pool.
// Randomness is sampled serially before any worker starts, so the
// output is bit-identical for every worker count (including the fully
// serial workers=1 path) given the same random stream.
func (k *DJKey) EncryptMany(random io.Reader, ms []*big.Int, workers int) ([]*Ciphertext, error) {
	rs := make([]*big.Int, len(ms))
	for i := range ms {
		r, err := k.Base.PublicKey.RandomUnit(random)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	out := make([]*Ciphertext, len(ms))
	err := parallel.For(context.Background(), workers, len(ms), func(i int) error {
		ct, err := k.EncryptWithNonce(ms[i], rs[i])
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

// EncryptMany encrypts a batch of plain-Paillier messages over the
// shared worker pool, with the same serial-randomness contract as
// DJKey.EncryptMany.
func (pk *PublicKey) EncryptMany(random io.Reader, ms []*big.Int, workers int) ([]*Ciphertext, error) {
	rs := make([]*big.Int, len(ms))
	for i := range ms {
		r, err := pk.RandomUnit(random)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	out := make([]*Ciphertext, len(ms))
	err := parallel.For(context.Background(), workers, len(ms), func(i int) error {
		ct, err := pk.EncryptWithNonce(ms[i], rs[i])
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
