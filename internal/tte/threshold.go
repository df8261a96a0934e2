package tte

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"

	"yosompc/internal/modexp"
	"yosompc/internal/paillier"
)

// statSecurity is the statistical masking parameter (bits) used when
// resharing key shares over the integers.
const statSecurity = 80

// Threshold is the real backend: threshold Paillier with a Shamir-shared
// decryption exponent, Δ = n! integer Lagrange combination, and integer
// resharing. It holds the dealer key, which also powers SimPartialDecrypt
// (the security simulator knows the dealer secrets, per the paper's
// Appendix B hybrids).
type Threshold struct {
	dealer *paillier.PrivateKey
	random io.Reader
	codec
}

// NewThreshold builds the real backend around a dealer key, which must be a
// safe-prime key (paillier.GenerateSafeKey or a fixed test key).
func NewThreshold(dealer *paillier.PrivateKey) (*Threshold, error) {
	if dealer == nil || dealer.M == nil {
		return nil, errors.New("tte: threshold backend requires a safe-prime dealer key")
	}
	return &Threshold{dealer: dealer, random: rand.Reader, codec: codec{scheme: "threshold-paillier", valued: true}}, nil
}

// exponent returns the decryption exponent d ≡ 0 (mod m), d ≡ 1 (mod N)
// and N·m, the modulus it is Shamir-shared over.
func (s *Threshold) exponent() (d, nm *big.Int, err error) {
	mInv := new(big.Int).ModInverse(s.dealer.M, s.dealer.N) //yosolint:vartime dealer-side key setup and simulator retargeting: the dealer holds the full secret key and stdlib math/big has no constant-time inverse
	if mInv == nil {
		return nil, nil, errors.New("tte: m not invertible mod N")
	}
	return mInv.Mul(s.dealer.M, mInv), new(big.Int).Mul(s.dealer.N, s.dealer.M), nil
}

// KeyGen implements TKGen: it Shamir-shares the decryption exponent d
// modulo N·m with a degree-t polynomial.
func (s *Threshold) KeyGen(n, t int) (PublicKey, []KeyShare, error) {
	if err := checkCommittee(n, t); err != nil {
		return nil, nil, err
	}
	d, nm, err := s.exponent()
	if err != nil {
		return nil, nil, err
	}
	coeffs := make([]*big.Int, t+1)
	coeffs[0] = d
	for i := 1; i <= t; i++ {
		c, err := rand.Int(s.random, nm)
		if err != nil {
			return nil, nil, fmt.Errorf("tte: sampling share polynomial: %w", err)
		}
		coeffs[i] = c
	}
	pk := &publicKey{scheme: s.scheme, n: n, t: t, delta: factorial(n),
		maxPlain: new(big.Int).Rsh(s.dealer.N, 2), ctBytes: (s.dealer.N2.BitLen() + 7) / 8}
	pk.dealt = new(big.Int).Mul(s.dealer.N, pk.maxPlain)
	shares := make([]KeyShare, n)
	for i := 1; i <= n; i++ {
		shares[i-1] = &keyShare{index: i, size: pk.ctBytes, d: evalIntPoly(coeffs, i, nm)} //yosolint:vartime dealer-side keygen evaluation of the key-sharing polynomial; stdlib math/big only
	}
	return pk, shares, nil
}

// evalIntPoly evaluates the polynomial at x, reducing modulo mod when mod is
// non-nil.
func evalIntPoly(coeffs []*big.Int, x int, mod *big.Int) *big.Int {
	xb, acc := big.NewInt(int64(x)), new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc.Add(acc.Mul(acc, xb), coeffs[i])
		if mod != nil {
			acc.Mod(acc, mod)
		}
	}
	return acc
}

// Encrypt implements TEnc as a batch of one.
func (s *Threshold) Encrypt(pk PublicKey, m, bound *big.Int) (Ciphertext, error) {
	return first(s.EncryptMany(pk, []*big.Int{m}, bound, 1))
}

// EncryptMany implements the batched TEnc: Paillier ciphertexts whose
// nonces are short powers of the key's public randomizer base, encrypted
// over the shared worker pool. The randomizer exponents are sampled
// serially inside the Paillier layer, so the ciphertexts are independent of
// the worker count.
func (s *Threshold) EncryptMany(pk PublicKey, ms []*big.Int, bound *big.Int, workers int) ([]Ciphertext, error) {
	p, err := s.plaintexts(pk, bound, ms)
	if err != nil {
		return nil, err
	}
	cts, err := s.dealer.EncryptMany(s.random, ms, workers)
	if err != nil {
		return nil, err
	}
	out := make([]Ciphertext, len(cts))
	shared := new(big.Int).Set(bound)
	for i, ct := range cts {
		out[i] = &ciphertext{value: ct.C, bound: shared, size: p.ctBytes}
	}
	return out, nil
}

// Eval implements TEval with non-negative integer coefficients. A term
// whose coefficient is one is multiplied in as it is: c^1 mod N² is
// what the product reduces it to anyway. Every other term joins one
// Straus product over N² (modexp.MultiExp), so the interpolations in
// the exponent — packing, the dependent wires, Beaver's c-parts — share
// one squaring chain as long as their longest coefficient.
func (s *Threshold) Eval(pk PublicKey, cts []Ciphertext, coeffs []*big.Int) (Ciphertext, error) {
	bound := new(big.Int)
	p, err := s.evalSums(pk, cts, coeffs, bound, nil)
	if err != nil {
		return nil, err
	}
	n2 := s.dealer.N2
	acc := big.NewInt(1)
	var bases, exps []*big.Int
	for i, ct := range cts {
		switch c := ct.(*ciphertext).value; {
		case coeffs[i].Sign() == 0:
		case coeffs[i].BitLen() == 1:
			acc.Mod(acc.Mul(acc, c), n2)
		default:
			bases, exps = append(bases, c), append(exps, coeffs[i])
		}
	}
	if len(bases) > 0 {
		pow, err := modexp.MultiExp(n2, bases, exps)
		if err != nil {
			return nil, err
		}
		acc.Mod(acc.Mul(acc, pow), n2)
	}
	return &ciphertext{value: acc, bound: bound, size: p.ctBytes}, nil
}

// PartialDecrypt implements TPDec: v = c^(2Δ·d_i) mod N². It runs on
// the CRT engine path, which reduces the 2Δ·d_i exponent modulo the
// per-prime group orders before exponentiating — the share carries
// log₂(2Δ·N·m) ≈ n·log₂n + 2·log₂N bits that reduction shrinks to
// the group order. This backend holds the dealer key (see the Threshold
// doc comment), so the factorization is available wherever the scheme
// runs.
func (s *Threshold) PartialDecrypt(pk PublicKey, sh KeyShare, ct Ciphertext) (PartialDec, error) {
	p, k, c, err := s.operands(pk, sh, ct)
	if err != nil {
		return nil, err
	}
	exp := new(big.Int).Lsh(k.d, 1) // 2·d_i
	exp.Mul(exp, p.delta)           // 2Δ·d_i
	v, err := s.dealer.ExpSignedCRT(c.value, exp)
	if err != nil {
		return nil, err
	}
	return &partial{index: k.index, epoch: k.epoch, size: p.ctBytes, v: v}, nil
}

// Combine implements TDec: c' = Π v_i^(2Λ_i) where Λ_i = Δ·λ_i(0), then the
// plaintext is L(c')·(4Δ²·Δ^epoch)⁻¹ mod N. The t+1-term product runs
// as one Straus multi-exponentiation (shared squaring chain across all
// partials).
func (s *Threshold) Combine(pk PublicKey, ct Ciphertext, parts []PartialDec) (*big.Int, error) {
	p, chosen, epoch, err := s.lowestPartials(pk, parts)
	if err != nil {
		return nil, err
	}
	idx, bases := make([]int, len(chosen)), make([]*big.Int, len(chosen))
	for i, q := range chosen {
		idx[i], bases[i] = q.index, q.v
	}
	exps, err := scaledLagrangeAtZero(p.delta, idx)
	if err != nil {
		return nil, err
	}
	for _, e := range exps {
		e.Lsh(e, 1) // 2Λ_i
	}
	acc, err := modexp.MultiExp(s.dealer.N2, bases, exps)
	if err != nil {
		return nil, err
	}
	// acc = (1+N)^(4Δ²·Δ^epoch·M) mod N² for well-formed inputs;
	// extract the exponent with L.
	lVal, err := s.dealer.L(acc)
	if err != nil {
		return nil, fmt.Errorf("%w: combination is not a valid decryption", ErrMalformedMessage)
	}
	// Divide by 4Δ²·Δ^epoch mod N.
	dp, err := s.deltaPower(p, epoch)
	if err != nil {
		return nil, err
	}
	div := new(big.Int).Mul(p.delta, p.delta)
	div.Lsh(div.Mul(div, dp), 2)
	divInv := new(big.Int).ModInverse(div, s.dealer.N)
	if divInv == nil {
		return nil, errors.New("tte: combination divisor not invertible")
	}
	return lVal.Mod(lVal.Mul(lVal, divInv), s.dealer.N), nil
}

// deltaPower returns Δ^epoch mod N. Both are public and an epoch is
// small (a run reshares tsk a handful of times), so this is a few
// multiplications beside each Combine's multi-exponentiation.
func (s *Threshold) deltaPower(p *publicKey, epoch int) (*big.Int, error) {
	return modexp.ExpSigned(p.delta, big.NewInt(int64(epoch)), s.dealer.N)
}

// lowestPartials validates parts and picks the t+1 with the lowest
// indices, for determinism.
func (s *Threshold) lowestPartials(pk PublicKey, parts []PartialDec) (*publicKey, []*partial, int, error) {
	p, ps, epoch, err := s.partials(pk, parts)
	if err != nil {
		return nil, nil, 0, err
	}
	slices.SortFunc(ps, func(a, b *partial) int { return a.index - b.index })
	return p, ps[:p.t+1], epoch, nil
}

// Reshare implements TKRes: share d_i with a fresh degree-t integer
// polynomial whose non-constant coefficients are drawn below the epoch's
// public masking bound, statSecurity bits past |d_i|·Δ (publicKey.bounds),
// so every sub-share fits the width the same bounds set.
func (s *Threshold) Reshare(pk PublicKey, sh KeyShare) ([]SubShare, error) {
	p, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	k, err := s.share(sh)
	if err != nil {
		return nil, err
	}
	mask, _ := p.bounds(k.epoch)
	size := p.SubShareSize(k.epoch)
	coeffs := make([]*big.Int, p.t+1)
	coeffs[0] = k.d
	for i := 1; i <= p.t; i++ {
		c, err := rand.Int(s.random, mask)
		if err != nil {
			return nil, fmt.Errorf("tte: sampling reshare polynomial: %w", err)
		}
		coeffs[i] = c
	}
	subs := make([]SubShare, p.n)
	for j := 1; j <= p.n; j++ {
		subs[j-1] = &subShare{from: k.index, to: j, epoch: k.epoch, size: size, v: evalIntPoly(coeffs, j, nil)} //yosolint:vartime role-side resharing of its own key share; stdlib math/big only, residual risk documented in docs/STATIC_ANALYSIS.md
	}
	return subs, nil
}

// RecoverShare implements TKRec: d'_j = Σ Λ_i·g_i(j) over the t+1
// resharing parties with the lowest indices, advancing the epoch (the
// effective secret gains a Δ factor, which Combine divides out).
func (s *Threshold) RecoverShare(pk PublicKey, index int, subs []SubShare) (KeyShare, error) {
	p, ss, epoch, err := s.subShares(pk, index, subs)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(ss, func(a, b *subShare) int { return a.from - b.from })
	ss = ss[:p.t+1]
	froms := make([]int, len(ss))
	for i, sub := range ss {
		froms[i] = sub.from
	}
	lambdas, err := scaledLagrangeAtZero(p.delta, froms)
	if err != nil {
		return nil, err
	}
	d, term := new(big.Int), new(big.Int)
	for i, sub := range ss {
		d.Add(d, term.Mul(lambdas[i], sub.v))
	}
	return &keyShare{index: index, epoch: epoch + 1, size: p.SubShareSize(epoch + 1), d: d}, nil
}

// SimPartialDecrypt implements SimTPDec (Definition 2). Given the true
// plaintext-bearing ciphertext, a target message, the corrupt parties'
// key shares (which the YOSO simulator extracts from their NIZKs), and the
// honest indices to simulate, it produces honest partial decryptions that
// combine with honestly-computed corrupt partials to the target.
func (s *Threshold) SimPartialDecrypt(pk PublicKey, ct Ciphertext, target *big.Int,
	corrupt []KeyShare, honest []int) ([]PartialDec, error) {
	p, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	c, err := asCiphertext(ct)
	if err != nil {
		return nil, err
	}
	// The simulator knows the dealer key: recover the true plaintext M.
	m, err := s.dealer.Decrypt(&paillier.Ciphertext{C: c.value})
	if err != nil {
		return nil, err
	}
	mInv := new(big.Int).ModInverse(m, s.dealer.N) //yosolint:vartime simulator-only equivocation retargeting; never executed by protocol roles
	if mInv == nil {
		return nil, errors.New("tte: true plaintext not invertible mod N; cannot retarget")
	}
	epoch := 0
	points := []int{0}
	values := []*big.Int{nil} // filled below with D0
	for _, sh := range corrupt {
		k, err := s.share(sh)
		if err != nil {
			return nil, err
		}
		epoch = k.epoch
		points = append(points, k.index)
		values = append(values, k.d)
	}
	// D0 ≡ 0 (mod m), D0 ≡ Δ^epoch·target·M⁻¹ (mod N).
	dp, err := s.deltaPower(p, epoch)
	if err != nil {
		return nil, err
	}
	d, nm, err := s.exponent()
	if err != nil {
		return nil, err
	}
	resN := new(big.Int).Mul(target, mInv)
	resN.Mod(resN.Mul(resN, dp), s.dealer.N)
	d0 := d.Mul(d, resN)
	values[0] = d0.Mod(d0, nm) //yosolint:vartime simulator-only equivocation retargeting; never executed by protocol roles

	// Pad to t+1 interpolation points with honest indices whose random
	// values ARE their simulated shares.
	for hi := 0; len(points) < p.t+1; hi++ {
		if hi >= len(honest) {
			return nil, errors.New("tte: not enough points to determine simulation polynomial")
		}
		v, err := rand.Int(s.random, nm)
		if err != nil {
			return nil, err
		}
		points = append(points, honest[hi])
		values = append(values, v)
	}

	out := make([]PartialDec, len(honest))
	for i, j := range honest {
		// 2·(Δ·F(j)) with Δ·F(j) = Σ Λ_k(j)·value_k, an integer (Δ·value
		// at a padding point).
		lambdas, err := scaledLagrangeAt(p.delta, points, j)
		if err != nil {
			return nil, err
		}
		w, term := new(big.Int), new(big.Int)
		for k := range points {
			w.Add(w, term.Mul(lambdas[k], values[k]))
		}
		v, err := s.dealer.ExpSignedCRT(c.value, w.Lsh(w, 1))
		if err != nil {
			return nil, err
		}
		out[i] = &partial{index: j, epoch: epoch, size: p.ctBytes, v: v}
	}
	return out, nil
}
