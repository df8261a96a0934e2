package tte

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"yosompc/internal/modexp"
	"yosompc/internal/paillier"
)

// statSecurity is the statistical masking parameter (bits) used when
// resharing key shares over the integers.
const statSecurity = 80

// Threshold is the real backend: threshold Paillier (or its Damgård–Jurik
// degree-s generalization, plaintext space Z_{N^s}) with a Shamir-shared
// decryption exponent, Δ = n! integer Lagrange combination, and integer
// resharing. It holds the dealer key, which also powers SimPartialDecrypt
// (the security simulator knows the dealer secrets, per the paper's
// Appendix B hybrids).
type Threshold struct {
	dealer *paillier.PrivateKey
	dj     *paillier.DJKey
	random io.Reader
}

// NewThreshold builds the real backend around a dealer key, which must be a
// safe-prime key (paillier.GenerateSafeKey or a fixed test key).
func NewThreshold(dealer *paillier.PrivateKey) (*Threshold, error) {
	return NewThresholdDJ(dealer, 1)
}

// NewThresholdDJ builds the real backend at Damgård–Jurik degree s: the
// plaintext space grows to Z_{N^s}, giving deep circuits integer headroom
// without a larger modulus. s = 1 is plain threshold Paillier.
func NewThresholdDJ(dealer *paillier.PrivateKey, s int) (*Threshold, error) {
	if dealer == nil || dealer.M == nil {
		return nil, errors.New("tte: threshold backend requires a safe-prime dealer key")
	}
	dj, err := paillier.NewDJKey(dealer, s)
	if err != nil {
		return nil, err
	}
	return &Threshold{dealer: dealer, dj: dj, random: rand.Reader}, nil
}

// Name implements Scheme.
func (s *Threshold) Name() string { return "threshold-paillier" }

type thresholdPK struct {
	pk       *paillier.PublicKey
	dj       *paillier.DJKey
	n, t     int
	delta    *big.Int // n!
	maxPlain *big.Int // N/4
	ctBytes  int
}

func (p *thresholdPK) N() int                 { return p.n }
func (p *thresholdPK) T() int                 { return p.t }
func (p *thresholdPK) CiphertextSize() int    { return p.ctBytes }
func (p *thresholdPK) MaxPlaintext() *big.Int { return p.maxPlain }

type thresholdShare struct {
	index int
	epoch int
	d     *big.Int //yosolint:secret key-share evaluation d_i = F(i); signed after resharing
}

func (s *thresholdShare) Index() int { return s.index }
func (s *thresholdShare) Epoch() int { return s.epoch }
func (s *thresholdShare) Size() int  { return (s.d.BitLen() + 7) / 8 }

type thresholdCT struct {
	ct    *paillier.Ciphertext
	bound *big.Int
	size  int
}

func (c *thresholdCT) Bound() *big.Int { return c.bound }
func (c *thresholdCT) Size() int       { return c.size }

type thresholdPartial struct {
	index int
	epoch int
	v     *big.Int //yosolint:secret partial decryption c^(2Δ·d_i) mod N², secret until intentionally combined
	size  int
}

func (p *thresholdPartial) Index() int { return p.index }
func (p *thresholdPartial) Epoch() int { return p.epoch }
func (p *thresholdPartial) Size() int  { return p.size }

type thresholdSub struct {
	from, to int
	epoch    int      // epoch of the share being reshared
	v        *big.Int //yosolint:secret resharing evaluation f_from(to), blinds the next-epoch share
}

func (s *thresholdSub) From() int { return s.from }
func (s *thresholdSub) To() int   { return s.to }
func (s *thresholdSub) Size() int { return (s.v.BitLen() + 7) / 8 }

// KeyGen implements TKGen: it derives the decryption exponent
// d ≡ 0 (mod m), d ≡ 1 (mod N^s) and Shamir-shares it modulo N^s·m.
func (s *Threshold) KeyGen(n, t int) (PublicKey, []KeyShare, error) {
	if n < 1 || t < 0 || t >= n {
		return nil, nil, fmt.Errorf("tte: invalid committee parameters n=%d t=%d", n, t)
	}
	sk := s.dealer
	nm := new(big.Int).Mul(s.dj.Ns, sk.M)
	mInv := new(big.Int).ModInverse(sk.M, s.dj.Ns) //yosolint:vartime dealer-side one-time keygen: the dealer holds the full secret key and stdlib math/big has no constant-time inverse
	if mInv == nil {
		return nil, nil, errors.New("tte: m not invertible mod N^s")
	}
	d := new(big.Int).Mul(sk.M, mInv) // d ≡ 0 mod m, ≡ 1 mod N^s

	// Shamir-share d with a degree-t polynomial over Z_{Nm}.
	coeffs := make([]*big.Int, t+1)
	coeffs[0] = d
	for i := 1; i <= t; i++ {
		c, err := rand.Int(s.random, nm)
		if err != nil {
			return nil, nil, fmt.Errorf("tte: sampling share polynomial: %w", err)
		}
		coeffs[i] = c
	}
	shares := make([]KeyShare, n)
	for i := 1; i <= n; i++ {
		shares[i-1] = &thresholdShare{index: i, d: evalIntPoly(coeffs, i, nm)} //yosolint:vartime dealer-side keygen evaluation of the key-sharing polynomial; stdlib math/big only
	}
	pub := &thresholdPK{
		pk:       &sk.PublicKey,
		dj:       s.dj,
		n:        n,
		t:        t,
		delta:    factorial(n),
		maxPlain: new(big.Int).Rsh(s.dj.Ns, 2),
		ctBytes:  s.dj.ByteLen(),
	}
	return pub, shares, nil
}

// evalIntPoly evaluates the polynomial at x, reducing modulo mod when mod is
// non-nil.
func evalIntPoly(coeffs []*big.Int, x int, mod *big.Int) *big.Int {
	xb := big.NewInt(int64(x))
	acc := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, xb)
		acc.Add(acc, coeffs[i])
		if mod != nil {
			acc.Mod(acc, mod)
		}
	}
	return acc
}

// Encrypt implements TEnc: a Damgård–Jurik ciphertext whose nonce is a
// short power of the key's public randomizer base (paillier.DJKey.Encrypt).
func (s *Threshold) Encrypt(pk PublicKey, m, bound *big.Int) (Ciphertext, error) {
	tpk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	if m.Sign() < 0 || bound == nil || m.Cmp(bound) > 0 {
		return nil, ErrPlaintextRange
	}
	if bound.Cmp(tpk.maxPlain) > 0 {
		return nil, fmt.Errorf("%w: bound %v", ErrPlaintextTooBig, bound)
	}
	ct, err := s.dj.Encrypt(s.random, m)
	if err != nil {
		return nil, err
	}
	return &thresholdCT{ct: ct, bound: new(big.Int).Set(bound), size: tpk.ctBytes}, nil
}

// EncryptMany implements BatchEncrypter: the per-message validation of
// Encrypt, then the Paillier layer's batched encryption over the shared
// worker pool. The randomizer exponents are sampled serially inside the
// Paillier layer, so the ciphertexts are independent of the worker count.
func (s *Threshold) EncryptMany(pk PublicKey, ms []*big.Int, bound *big.Int, workers int) ([]Ciphertext, error) {
	tpk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	if bound == nil {
		return nil, ErrPlaintextRange
	}
	if bound.Cmp(tpk.maxPlain) > 0 {
		return nil, fmt.Errorf("%w: bound %v", ErrPlaintextTooBig, bound)
	}
	for _, m := range ms {
		if m.Sign() < 0 || m.Cmp(bound) > 0 {
			return nil, ErrPlaintextRange
		}
	}
	cts, err := s.dj.EncryptMany(s.random, ms, workers)
	if err != nil {
		return nil, err
	}
	out := make([]Ciphertext, len(cts))
	for i, ct := range cts {
		out[i] = &thresholdCT{ct: ct, bound: new(big.Int).Set(bound), size: tpk.ctBytes}
	}
	return out, nil
}

// Eval implements TEval with non-negative integer coefficients.
func (s *Threshold) Eval(pk PublicKey, cts []Ciphertext, coeffs []*big.Int) (Ciphertext, error) {
	tpk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	if len(cts) != len(coeffs) {
		return nil, fmt.Errorf("tte: eval: %d ciphertexts vs %d coefficients", len(cts), len(coeffs))
	}
	acc := &paillier.Ciphertext{C: big.NewInt(1)}
	bound := new(big.Int)
	term := new(big.Int)
	for i, c := range cts {
		tc, ok := c.(*thresholdCT)
		if !ok {
			return nil, fmt.Errorf("%w: ciphertext %d", ErrWrongKey, i)
		}
		if coeffs[i].Sign() < 0 {
			return nil, fmt.Errorf("%w: coefficient %d", ErrNegativeCoeff, i)
		}
		if coeffs[i].Sign() == 0 {
			continue
		}
		acc = s.dj.Add(acc, s.dj.ScalarMul(tc.ct, coeffs[i]))
		bound.Add(bound, term.Mul(coeffs[i], tc.bound))
	}
	if bound.Cmp(tpk.maxPlain) > 0 {
		return nil, fmt.Errorf("%w: combined bound %v", ErrPlaintextTooBig, bound)
	}
	return &thresholdCT{ct: acc, bound: bound, size: tpk.ctBytes}, nil
}

// PartialDecrypt implements TPDec: v = c^(2Δ·d_i) mod N². It runs on
// the CRT engine path, which reduces the 2Δ·d_i exponent modulo the
// per-prime group orders before exponentiating — the share carries
// log₂(2Δ·N^s·m) ≈ n·log₂n + 2·s·log₂N bits that reduction shrinks to
// the group order. This backend holds the dealer key (see the Threshold
// doc comment), so the factorization is available wherever the scheme
// runs.
func (s *Threshold) PartialDecrypt(pk PublicKey, sh KeyShare, ct Ciphertext) (PartialDec, error) {
	tpk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	tsh, ok := sh.(*thresholdShare)
	if !ok {
		return nil, fmt.Errorf("%w: key share", ErrWrongKey)
	}
	tct, ok := ct.(*thresholdCT)
	if !ok {
		return nil, fmt.Errorf("%w: ciphertext", ErrWrongKey)
	}
	exp := new(big.Int).Lsh(tsh.d, 1) // 2·d_i
	exp.Mul(exp, tpk.delta)           // 2Δ·d_i
	v, err := s.dj.ExpSignedCRT(tct.ct.C, exp)
	if err != nil {
		return nil, err
	}
	return &thresholdPartial{index: tsh.index, epoch: tsh.epoch, v: v, size: tpk.ctBytes}, nil
}

// Combine implements TDec: c' = Π v_i^(2Λ_i) where Λ_i = Δ·λ_i(0), then the
// plaintext is L(c')·(4Δ²·Δ^epoch)⁻¹ mod N. The t+1-term product runs
// as one Straus multi-exponentiation (shared squaring chain across all
// partials) and Δ^epoch comes from the cached power ladder.
func (s *Threshold) Combine(pk PublicKey, ct Ciphertext, parts []PartialDec) (*big.Int, error) {
	tpk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	chosen, epoch, err := selectPartials(parts, tpk.t) //yosolint:vartime combine-side selection: the combiner is the designated plaintext recipient
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(chosen))
	for i, p := range chosen {
		idx[i] = p.Index()
	}
	lambdas, err := scaledLagrangeAtZero(tpk.delta, idx)
	if err != nil {
		return nil, err
	}
	bases := make([]*big.Int, len(chosen))
	exps := make([]*big.Int, len(chosen))
	for i, p := range chosen {
		bases[i] = p.(*thresholdPartial).v
		exps[i] = new(big.Int).Lsh(lambdas[i], 1) // 2Λ_i
	}
	acc, err := modexp.MultiExp(s.dj.Ns1, bases, exps)
	if err != nil {
		return nil, err
	}
	// acc = (1+N)^(4Δ²·Δ^epoch·M) mod N^{s+1} for well-formed inputs;
	// extract the exponent with the Damgård–Jurik recursion.
	lVal, err := s.dj.DLogOnePlusN(acc)
	if err != nil {
		return nil, fmt.Errorf("%w: combination is not a valid decryption", ErrMalformedMessage)
	}
	// Divide by 4Δ²·Δ^epoch mod N^s.
	div := new(big.Int).Mul(tpk.delta, tpk.delta)
	div.Lsh(div, 2)
	if epoch > 0 {
		dp, err := s.deltaPower(tpk, epoch)
		if err != nil {
			return nil, err
		}
		div.Mul(div, dp)
	}
	divInv := new(big.Int).ModInverse(div, s.dj.Ns)
	if divInv == nil {
		return nil, errors.New("tte: combination divisor not invertible")
	}
	m := lVal.Mul(lVal, divInv)
	m.Mod(m, s.dj.Ns)
	return m, nil
}

// deltaPower returns Δ^epoch mod N^s from the process-wide power ladder
// (one cached multiplication per new epoch instead of a full
// exponentiation at every Combine). Ladder entries are shared; callers
// must not mutate the returned value.
func (s *Threshold) deltaPower(tpk *thresholdPK, epoch int) (*big.Int, error) {
	return modexp.Ladder(tpk.delta, s.dj.Ns).Pow(epoch)
}

// selectPartials validates and picks t+1 partials with distinct indices and
// a consistent epoch, preferring lower indices for determinism.
func selectPartials(parts []PartialDec, t int) ([]PartialDec, int, error) {
	seen := make(map[int]PartialDec, len(parts))
	epoch := -1
	for _, p := range parts {
		if p == nil {
			continue
		}
		if epoch == -1 {
			epoch = p.Epoch()
		} else if p.Epoch() != epoch {
			return nil, 0, ErrEpochMismatch
		}
		if _, dup := seen[p.Index()]; dup {
			return nil, 0, fmt.Errorf("%w: partial from %d", ErrDuplicateIndex, p.Index())
		}
		seen[p.Index()] = p
	}
	if len(seen) < t+1 {
		return nil, 0, fmt.Errorf("%w: have %d, need %d", ErrTooFewPartials, len(seen), t+1)
	}
	idx := make([]int, 0, len(seen))
	for i := range seen {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	chosen := make([]PartialDec, t+1)
	for i := 0; i <= t; i++ {
		chosen[i] = seen[idx[i]]
	}
	return chosen, epoch, nil
}

// Reshare implements TKRes: share d_i with a fresh degree-t integer
// polynomial whose non-constant coefficients carry statSecurity bits of
// statistical masking.
func (s *Threshold) Reshare(pk PublicKey, sh KeyShare) ([]SubShare, error) {
	tpk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	tsh, ok := sh.(*thresholdShare)
	if !ok {
		return nil, fmt.Errorf("%w: key share", ErrWrongKey)
	}
	// Masking bound: |d_i|·Δ·2^statSecurity (at least N^s·m·Δ·2^σ for
	// epoch 0).
	mag := new(big.Int).Abs(tsh.d)
	nm := new(big.Int).Mul(s.dj.Ns, s.dealer.M)
	if mag.Cmp(nm) < 0 { //yosolint:vartime sizes the masking bound; reveals only the share's magnitude class, which its wire-encoding length reveals regardless
		mag = nm
	}
	bound := new(big.Int).Mul(mag, tpk.delta)
	bound.Lsh(bound, statSecurity)

	coeffs := make([]*big.Int, tpk.t+1)
	coeffs[0] = tsh.d
	for i := 1; i <= tpk.t; i++ {
		c, err := rand.Int(s.random, bound)
		if err != nil {
			return nil, fmt.Errorf("tte: sampling reshare polynomial: %w", err)
		}
		coeffs[i] = c
	}
	subs := make([]SubShare, tpk.n)
	for j := 1; j <= tpk.n; j++ {
		subs[j-1] = &thresholdSub{
			from:  tsh.index,
			to:    j,
			epoch: tsh.epoch,
			v:     evalIntPoly(coeffs, j, nil), //yosolint:vartime role-side resharing of its own key share; stdlib math/big only, residual risk documented in docs/STATIC_ANALYSIS.md
		}
	}
	return subs, nil
}

// RecoverShare implements TKRec: d'_j = Σ Λ_i·g_i(j) over t+1 resharing
// parties, advancing the epoch (the effective secret gains a Δ factor,
// which Combine divides out).
func (s *Threshold) RecoverShare(pk PublicKey, index int, subs []SubShare) (KeyShare, error) {
	tpk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	seen := make(map[int]*thresholdSub, len(subs))
	epoch := -1
	for _, sub := range subs {
		ts, ok := sub.(*thresholdSub)
		if !ok {
			return nil, fmt.Errorf("%w: subshare", ErrWrongKey)
		}
		if ts.to != index {
			return nil, fmt.Errorf("%w: subshare addressed to %d, not %d", ErrMalformedMessage, ts.to, index)
		}
		if epoch == -1 {
			epoch = ts.epoch
		} else if ts.epoch != epoch {
			return nil, ErrEpochMismatch
		}
		if _, dup := seen[ts.from]; dup {
			return nil, fmt.Errorf("%w: subshare from %d", ErrDuplicateIndex, ts.from)
		}
		seen[ts.from] = ts
	}
	if len(seen) < tpk.t+1 {
		return nil, fmt.Errorf("%w: have %d subshares, need %d", ErrTooFewPartials, len(seen), tpk.t+1)
	}
	froms := make([]int, 0, len(seen))
	for f := range seen {
		froms = append(froms, f)
	}
	sort.Ints(froms)
	froms = froms[:tpk.t+1]
	lambdas, err := scaledLagrangeAtZero(tpk.delta, froms)
	if err != nil {
		return nil, err
	}
	d := new(big.Int)
	term := new(big.Int)
	for i, f := range froms {
		d.Add(d, term.Mul(lambdas[i], seen[f].v))
	}
	return &thresholdShare{index: index, epoch: epoch + 1, d: d}, nil
}

// SimPartialDecrypt implements SimTPDec (Definition 2). Given the true
// plaintext-bearing ciphertext, a target message, the corrupt parties'
// key shares (which the YOSO simulator extracts from their NIZKs), and the
// honest indices to simulate, it produces honest partial decryptions that
// combine with honestly-computed corrupt partials to the target.
func (s *Threshold) SimPartialDecrypt(pk PublicKey, ct Ciphertext, target *big.Int,
	corrupt []KeyShare, honest []int) ([]PartialDec, error) {
	tpk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	tct, ok := ct.(*thresholdCT)
	if !ok {
		return nil, fmt.Errorf("%w: ciphertext", ErrWrongKey)
	}
	// The simulator knows the dealer key: recover the true plaintext M.
	m, err := s.dj.Decrypt(tct.ct)
	if err != nil {
		return nil, err
	}
	mInv := new(big.Int).ModInverse(m, s.dj.Ns) //yosolint:vartime simulator-only equivocation retargeting; never executed by protocol roles
	if mInv == nil {
		return nil, errors.New("tte: true plaintext not invertible mod N^s; cannot retarget")
	}
	epoch := 0
	points := []int{0}
	values := []*big.Int{nil} // filled below with D0
	for _, c := range corrupt {
		tc, ok := c.(*thresholdShare)
		if !ok {
			return nil, fmt.Errorf("%w: corrupt share", ErrWrongKey)
		}
		epoch = tc.epoch
		points = append(points, tc.index)
		values = append(values, tc.d)
	}
	// D0 ≡ 0 (mod m), D0 ≡ Δ^epoch·target·M⁻¹ (mod N^s).
	resN := new(big.Int).Mul(target, mInv)
	if epoch > 0 {
		dp, err := s.deltaPower(tpk, epoch)
		if err != nil {
			return nil, err
		}
		resN.Mul(resN, dp)
	}
	resN.Mod(resN, s.dj.Ns)
	mInvModNs := new(big.Int).ModInverse(s.dealer.M, s.dj.Ns) //yosolint:vartime simulator-only equivocation retargeting; never executed by protocol roles
	d0 := new(big.Int).Mul(s.dealer.M, mInvModNs)
	d0.Mul(d0, resN)
	nm := new(big.Int).Mul(s.dj.Ns, s.dealer.M)
	d0.Mod(d0, nm) //yosolint:vartime simulator-only equivocation retargeting; never executed by protocol roles
	values[0] = d0

	// Pad to t+1 interpolation points using free honest indices with
	// random share values (those ARE their simulated shares).
	free := map[int]*big.Int{}
	hi := 0
	for len(points) < tpk.t+1 {
		if hi >= len(honest) {
			return nil, errors.New("tte: not enough points to determine simulation polynomial")
		}
		j := honest[hi]
		hi++
		v, err := rand.Int(s.random, nm)
		if err != nil {
			return nil, err
		}
		free[j] = v
		points = append(points, j)
		values = append(values, v)
	}

	out := make([]PartialDec, 0, len(honest))
	for _, j := range honest {
		var exp *big.Int
		if v, isFree := free[j]; isFree {
			// 2Δ·d̂_j for the freely chosen share.
			exp = new(big.Int).Mul(tpk.delta, v)
			exp.Lsh(exp, 1)
		} else {
			// 2·(Δ·F(j)) with Δ·F(j) = Σ Λ_i(j)·value_i, an integer.
			lambdas, err := scaledLagrangeAt(tpk.delta, points, j)
			if err != nil {
				return nil, err
			}
			w := new(big.Int)
			term := new(big.Int)
			for i := range points {
				w.Add(w, term.Mul(lambdas[i], values[i]))
			}
			exp = w.Lsh(w, 1)
		}
		v, err := s.dj.ExpSignedCRT(tct.ct.C, exp)
		if err != nil {
			return nil, err
		}
		out = append(out, &thresholdPartial{index: j, epoch: epoch, v: v, size: tpk.ctBytes})
	}
	return out, nil
}

func (s *Threshold) pub(pk PublicKey) (*thresholdPK, error) {
	tpk, ok := pk.(*thresholdPK)
	if !ok {
		return nil, fmt.Errorf("%w: public key", ErrWrongKey)
	}
	return tpk, nil
}
