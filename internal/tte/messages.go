package tte

import (
	"fmt"
	"math/big"
	"slices"
	"sync"
)

// The TE messages, one type per kind for both backends: metadata, the
// value the real scheme computes with, and the wire width the key pins for
// it (codec.go). On Sim a ciphertext's and a partial's value is the
// plaintext itself, and key shares and sub-shares carry none (nil). A
// ciphertext's value and bound are never modified once it exists, so they
// are shared: one bound serves an EncryptMany batch, and a Sim partial
// holds its ciphertext's value. The input checks below are the ones both
// backends run; each backend adds only its arithmetic.

// publicKey is either backend's public key; scheme names the backend that
// dealt it, so that each refuses the other's keys.
type publicKey struct {
	scheme   string
	n, t     int
	delta    *big.Int // n!, Threshold's Lagrange scale; nil on Sim
	maxPlain *big.Int
	ctBytes  int
	// dealt bounds a dealt key share, N·⌊N/4⌋ > N·m (Threshold); nil on
	// Sim, whose shares carry no value.
	dealt *big.Int
	// masks and subs memoise bounds, epoch by epoch, under mu.
	mu          sync.Mutex
	masks, subs []*big.Int
}

func (p *publicKey) N() int                 { return p.n }
func (p *publicKey) T() int                 { return p.t }
func (p *publicKey) CiphertextSize() int    { return p.ctBytes }
func (p *publicKey) MaxPlaintext() *big.Int { return p.maxPlain }

// SubShareSize is the width of a sub-share resharing a key share of the
// given epoch, and of a key share recovered at that epoch: a sign byte and
// the magnitude of the epoch's bound (bounds). Sim models it as a key share
// plus the masking slack.
func (p *publicKey) SubShareSize(epoch int) int {
	if p.dealt == nil {
		return p.ctBytes + statSecurity/8
	}
	_, sub := p.bounds(epoch)
	return 1 + byteLen(sub)
}

// bounds returns TKRes's public bounds on key shares of epoch e, whose
// magnitudes are below d_e: its coefficients are below mask = d_e·Δ·2^σ and
// its sub-shares below sub = d_e + mask·Σ_{k=1..t} n^k. A dealt share is
// below d_0 = N·⌊N/4⌋ > N·m; TKRec weights t+1 sub-shares by Δ·λ_i(0), and
// any t+1 of 1..n have Σ|λ_i(0)| ≤ n!/(n−t)!·Σ_i 1/(i!(t−i)!) = C(n,t)·2^t,
// so d_{e+1} = Δ·C(n,t)·2^t·sub_e (< sub_{e+1}). No bound reads a secret.
// Each epoch's are computed once, on first use, and kept on the key: the
// values returned are only read.
func (p *publicKey) bounds(epoch int) (mask, sub *big.Int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for e := len(p.subs); e <= epoch; e++ {
		powers, pow, n := new(big.Int), big.NewInt(1), big.NewInt(int64(p.n))
		for range p.t {
			powers.Add(powers, pow.Mul(pow, n))
		}
		d := p.dealt
		if e > 0 {
			d = new(big.Int).Binomial(int64(p.n), int64(p.t))
			d.Mul(d.Mul(d.Lsh(d, uint(p.t)), p.delta), p.subs[e-1])
		}
		mask = new(big.Int).Lsh(new(big.Int).Mul(d, p.delta), statSecurity)
		p.masks, p.subs = append(p.masks, mask), append(p.subs, new(big.Int).Add(d, new(big.Int).Mul(mask, powers)))
	}
	return p.masks[max(epoch, 0)], p.subs[max(epoch, 0)]
}

type ciphertext struct {
	value *big.Int // the Paillier residue mod N² (Sim: the plaintext)
	bound *big.Int
	size  int
}

func (c *ciphertext) Bound() *big.Int { return c.bound }
func (c *ciphertext) Size() int       { return c.size }

type keyShare struct {
	index, epoch int
	size         int      // CiphertextSize() when dealt, SubShareSize(epoch) after
	d            *big.Int //yosolint:secret key-share evaluation d_i = F(i); signed after resharing
}

func (s *keyShare) Index() int { return s.index }
func (s *keyShare) Epoch() int { return s.epoch }

type partial struct {
	index, epoch int
	size         int      // CiphertextSize()
	v            *big.Int //yosolint:secret partial decryption c^(2Δ·d_i) mod N² (Sim: the plaintext), secret until intentionally combined
}

func (p *partial) Index() int { return p.index }
func (p *partial) Epoch() int { return p.epoch }

type subShare struct {
	from, to int
	epoch    int      // epoch of the share being reshared
	size     int      // SubShareSize(epoch)
	v        *big.Int //yosolint:secret resharing evaluation f_from(to), blinds the next-epoch share
}

func (s *subShare) From() int { return s.from }
func (s *subShare) To() int   { return s.to }

// byteLen is the big-endian length of |v|.
func byteLen(v *big.Int) int { return (v.BitLen() + 7) / 8 }

// first unwraps a batch of one.
func first(cts []Ciphertext, err error) (Ciphertext, error) {
	if err != nil {
		return nil, err
	}
	return cts[0], nil
}

func (c *codec) pub(pk PublicKey) (*publicKey, error) {
	p, ok := pk.(*publicKey)
	if !ok || p.scheme != c.scheme {
		return nil, fmt.Errorf("%w: public key", ErrWrongKey)
	}
	return p, nil
}

// share narrows sh to a key share; where the backend computes with share
// values, one without (Sim's) is refused.
func (c *codec) share(sh KeyShare) (*keyShare, error) {
	k, ok := sh.(*keyShare)
	if !ok || c.valued && k.d == nil {
		return nil, fmt.Errorf("%w: key share", ErrWrongKey)
	}
	return k, nil
}

func asCiphertext(ct Ciphertext) (*ciphertext, error) {
	c, ok := ct.(*ciphertext)
	if !ok {
		return nil, fmt.Errorf("%w: ciphertext", ErrWrongKey)
	}
	return c, nil
}

// operands narrows TPDec's arguments.
func (c *codec) operands(pk PublicKey, sh KeyShare, ct Ciphertext) (p *publicKey, k *keyShare, x *ciphertext, err error) {
	if p, err = c.pub(pk); err == nil {
		if k, err = c.share(sh); err == nil {
			x, err = asCiphertext(ct)
		}
	}
	return p, k, x, err
}

// checkCommittee refuses a committee TKGen cannot deal to.
func checkCommittee(n, t int) error {
	if n < 1 || t < 0 || t >= n {
		return fmt.Errorf("tte: invalid committee parameters n=%d t=%d", n, t)
	}
	return nil
}

// plaintexts is TEnc's input check: the bound within the key's capacity and
// every m in [0, bound]. The range error is the constant ErrPlaintextRange:
// the rejected value is a secret.
func (c *codec) plaintexts(pk PublicKey, bound *big.Int, ms []*big.Int) (*publicKey, error) {
	p, err := c.pub(pk)
	if err != nil {
		return nil, err
	}
	if bound == nil {
		return nil, ErrPlaintextRange
	}
	if bound.Cmp(p.maxPlain) > 0 {
		return nil, fmt.Errorf("%w: bound %v", ErrPlaintextTooBig, bound)
	}
	for _, m := range ms {
		if m.Sign() < 0 || m.Cmp(bound) > 0 {
			return nil, ErrPlaintextRange
		}
	}
	return p, nil
}

// evalSums is TEval's input check and its sums: one non-negative
// coefficient per ciphertext, and a result bound Σ coeffs[i]·bound_i within
// the key's capacity, which it sets bound to. A non-nil value is set to
// Σ coeffs[i]·value_i (Sim's TEval) in the same pass. The sums' words come
// from one slab.
func (c *codec) evalSums(pk PublicKey, cts []Ciphertext, coeffs []*big.Int, bound, value *big.Int) (*publicKey, error) {
	p, err := c.pub(pk)
	if err != nil {
		return nil, err
	}
	if len(cts) != len(coeffs) {
		return nil, fmt.Errorf("tte: eval: %d ciphertexts vs %d coefficients", len(cts), len(coeffs))
	}
	nb, nv := 0, 0
	for i, ct := range cts {
		x, ok := ct.(*ciphertext)
		if !ok {
			return nil, fmt.Errorf("%w: ciphertext %d", ErrWrongKey, i)
		}
		if coeffs[i].Sign() < 0 {
			return nil, fmt.Errorf("%w: coefficient %d", ErrNegativeCoeff, i)
		}
		nb = max(nb, termLen(coeffs[i], x.bound)+1)
		if value != nil {
			nv = max(nv, termLen(coeffs[i], x.value)+1)
		}
	}
	z := make([]big.Word, nb+nv)
	zb, zv := z[:nb:nb], z[nb:]
	for i, ct := range cts {
		x := ct.(*ciphertext)
		addProduct(zb, coeffs[i], x.bound)
		if value != nil {
			addProduct(zv, coeffs[i], x.value)
		}
	}
	bound.SetBits(zb)
	if value != nil {
		value.SetBits(zv)
	}
	if bound.Cmp(p.maxPlain) > 0 {
		return nil, fmt.Errorf("%w: combined bound %v", ErrPlaintextTooBig, bound)
	}
	return p, nil
}

// partials is TDec's input check: the non-nil partials, all of one epoch
// and from distinct parties, at least t+1 of them. It returns them in input
// order, and their epoch.
func (c *codec) partials(pk PublicKey, parts []PartialDec) (*publicKey, []*partial, int, error) {
	p, err := c.pub(pk)
	if err != nil {
		return nil, nil, 0, err
	}
	ps := make([]*partial, 0, len(parts))
	for _, pd := range parts {
		if pd == nil {
			continue
		}
		q, ok := pd.(*partial)
		if !ok {
			return nil, nil, 0, fmt.Errorf("%w: partial", ErrWrongKey)
		}
		ps = append(ps, q)
	}
	epoch, err := distinct(ps, p.n, p.t, "partials", func(q *partial) (int, int) { return q.index, q.epoch })
	return p, ps, epoch, err
}

// subShares is TKRec's input check: sub-shares of this backend addressed to
// index, all of one epoch and from distinct parties, at least t+1 of them.
// It returns them in input order, and their epoch.
func (c *codec) subShares(pk PublicKey, index int, subs []SubShare) (*publicKey, []*subShare, int, error) {
	p, err := c.pub(pk)
	if err != nil {
		return nil, nil, 0, err
	}
	ss := make([]*subShare, len(subs))
	for i, sub := range subs {
		s, ok := sub.(*subShare)
		if !ok || c.valued && s.v == nil {
			return nil, nil, 0, fmt.Errorf("%w: subshare", ErrWrongKey)
		}
		if s.to != index {
			return nil, nil, 0, fmt.Errorf("%w: subshare addressed to %d, not %d", ErrMalformedMessage, s.to, index)
		}
		ss[i] = s
	}
	epoch, err := distinct(ss, p.n, p.t, "subshares", func(s *subShare) (int, int) { return s.from, s.epoch })
	return p, ss, epoch, err
}

// distinct is the set check TDec and TKRec share: msgs all of one epoch
// and from distinct parties, at least t+1 of them. It returns the epoch.
// Parties 0…n are marked in a bitset, on the stack up to n = 255; a party
// outside that range comes only from a forged message and is looked up
// among the others like it.
func distinct[M any](msgs []M, n, t int, what string, key func(M) (party, epoch int)) (int, error) {
	var small [4]uint64
	seen := small[:]
	if words := n/64 + 1; words > len(seen) {
		seen = make([]uint64, words)
	}
	var outside []int
	epoch := 0
	for i, m := range msgs {
		party, e := key(m)
		if i == 0 {
			epoch = e
		} else if e != epoch {
			return 0, ErrEpochMismatch
		}
		dup := false
		if uint(party) < uint(64*len(seen)) {
			word, bit := party/64, uint64(1)<<(party%64)
			dup, seen[word] = seen[word]&bit != 0, seen[word]|bit
		} else {
			dup, outside = slices.Contains(outside, party), append(outside, party)
		}
		if dup {
			return 0, fmt.Errorf("%w: %s from %d", ErrDuplicateIndex, what, party)
		}
	}
	if len(msgs) < t+1 {
		return 0, fmt.Errorf("%w: have %d %s, need %d", ErrTooFewPartials, len(msgs), what, t+1)
	}
	return epoch, nil
}
