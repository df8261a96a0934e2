package tte

import (
	"fmt"
	"math/big"
	"sort"
)

// Sim is the ideal-functionality backend. It performs the same integer
// arithmetic as the real scheme on in-the-clear values while *modelling*
// wire sizes for a deployment with the configured modulus, so that
// communication sweeps at committee sizes in the thousands measure the
// same byte counts the real backend would produce, without big-integer
// exponentiations dominating wall clock.
//
// Sim provides no confidentiality. It exists for scaling experiments and is
// cross-checked against Threshold at small n by the test suite.
type Sim struct {
	// ModulusBits is the modelled Paillier modulus size (e.g. 2048).
	ModulusBits int
}

// NewSim returns a Sim backend modelling the given modulus size.
func NewSim(modulusBits int) *Sim {
	if modulusBits <= 0 {
		modulusBits = 2048
	}
	return &Sim{ModulusBits: modulusBits}
}

// Name implements Scheme.
func (s *Sim) Name() string { return "sim" }

// The modelled wire sizes in bytes — the one table of them: the codec
// pads every encoding to these and costmodel.SimSizes reads them.

// CiphertextSize is an element of Z_{N²}.
func (s *Sim) CiphertextSize() int { return s.ModulusBits / 4 }

// KeyShareSize is a tsk key share, ≈ |Nm|.
func (s *Sim) KeyShareSize() int { return s.ModulusBits / 4 }

// PartialSize is a partial decryption, an element of Z_{N²}.
func (s *Sim) PartialSize() int { return s.ModulusBits / 4 }

// SubShareSize is a resharing subshare: a key share plus the
// statistical masking slack.
func (s *Sim) SubShareSize() int { return s.ModulusBits/4 + statSecurity/8 }

// MaxPlaintext is the largest plaintext bound of the modelled key, ≈ N/4 —
// what its public keys report and what costmodel sizes slot-packed openings
// by.
func (s *Sim) MaxPlaintext() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(s.ModulusBits-2))
}

type simPK struct {
	n, t     int
	maxPlain *big.Int
	ctBytes  int
}

func (p *simPK) N() int                 { return p.n }
func (p *simPK) T() int                 { return p.t }
func (p *simPK) CiphertextSize() int    { return p.ctBytes }
func (p *simPK) MaxPlaintext() *big.Int { return p.maxPlain }

type simShare struct {
	index, epoch int
	size         int
}

func (s *simShare) Index() int { return s.index }
func (s *simShare) Epoch() int { return s.epoch }
func (s *simShare) Size() int  { return s.size }

type simCT struct {
	value *big.Int
	bound *big.Int
	size  int
}

func (c *simCT) Bound() *big.Int { return c.bound }
func (c *simCT) Size() int       { return c.size }

type simPartial struct {
	index, epoch int
	value        *big.Int //yosolint:secret simulated partial carries the plaintext in the clear
	size         int
}

func (p *simPartial) Index() int { return p.index }
func (p *simPartial) Epoch() int { return p.epoch }
func (p *simPartial) Size() int  { return p.size }

type simSub struct {
	from, to, epoch int
	size            int
}

func (s *simSub) From() int { return s.from }
func (s *simSub) To() int   { return s.to }
func (s *simSub) Size() int { return s.size }

// KeyGen implements TKGen.
func (s *Sim) KeyGen(n, t int) (PublicKey, []KeyShare, error) {
	if n < 1 || t < 0 || t >= n {
		return nil, nil, fmt.Errorf("tte: invalid committee parameters n=%d t=%d", n, t)
	}
	shares := make([]KeyShare, n)
	for i := 1; i <= n; i++ {
		shares[i-1] = &simShare{index: i, size: s.KeyShareSize()}
	}
	return &simPK{n: n, t: t, maxPlain: s.MaxPlaintext(), ctBytes: s.CiphertextSize()}, shares, nil
}

// Encrypt implements TEnc.
func (s *Sim) Encrypt(pk PublicKey, m, bound *big.Int) (Ciphertext, error) {
	spk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	if m.Sign() < 0 || bound == nil || m.Cmp(bound) > 0 {
		return nil, ErrPlaintextRange
	}
	if bound.Cmp(spk.maxPlain) > 0 {
		return nil, fmt.Errorf("%w: bound %v", ErrPlaintextTooBig, bound)
	}
	return &simCT{value: new(big.Int).Set(m), bound: new(big.Int).Set(bound), size: spk.ctBytes}, nil
}

// EncryptMany implements the batched TEnc. The sim backend has no
// exponentiations to amortize, so this is exactly n Encrypt calls; it
// exists so sweeps exercise the same batched driver paths as the real
// backend.
func (s *Sim) EncryptMany(pk PublicKey, ms []*big.Int, bound *big.Int, _ int) ([]Ciphertext, error) {
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

// Eval implements TEval.
func (s *Sim) Eval(pk PublicKey, cts []Ciphertext, coeffs []*big.Int) (Ciphertext, error) {
	spk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	if len(cts) != len(coeffs) {
		return nil, fmt.Errorf("tte: eval: %d ciphertexts vs %d coefficients", len(cts), len(coeffs))
	}
	val := new(big.Int)
	bound := new(big.Int)
	term := new(big.Int)
	for i, c := range cts {
		sc, ok := c.(*simCT)
		if !ok {
			return nil, fmt.Errorf("%w: ciphertext %d", ErrWrongKey, i)
		}
		if coeffs[i].Sign() < 0 {
			return nil, fmt.Errorf("%w: coefficient %d", ErrNegativeCoeff, i)
		}
		val.Add(val, term.Mul(coeffs[i], sc.value))
		bound.Add(bound, term.Mul(coeffs[i], sc.bound))
	}
	if bound.Cmp(spk.maxPlain) > 0 {
		return nil, fmt.Errorf("%w: combined bound %v", ErrPlaintextTooBig, bound)
	}
	return &simCT{value: val, bound: bound, size: spk.ctBytes}, nil
}

// PartialDecrypt implements TPDec.
func (s *Sim) PartialDecrypt(pk PublicKey, sh KeyShare, ct Ciphertext) (PartialDec, error) {
	if _, err := s.pub(pk); err != nil {
		return nil, err
	}
	ssh, ok := sh.(*simShare)
	if !ok {
		return nil, fmt.Errorf("%w: key share", ErrWrongKey)
	}
	sct, ok := ct.(*simCT)
	if !ok {
		return nil, fmt.Errorf("%w: ciphertext", ErrWrongKey)
	}
	return &simPartial{
		index: ssh.index,
		epoch: ssh.epoch,
		value: new(big.Int).Set(sct.value),
		size:  s.PartialSize(),
	}, nil
}

// Combine implements TDec: majority value among > t partials with distinct
// indices and a consistent epoch.
func (s *Sim) Combine(pk PublicKey, _ Ciphertext, parts []PartialDec) (*big.Int, error) {
	spk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	epoch := -1
	// The vote runs on the integers themselves: one tally per distinct
	// value, so an honest run compares every partial against a single
	// candidate.
	type tally struct {
		value *big.Int
		count int
	}
	var tallies []tally
	var best *big.Int
	bestCount := 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		sp, ok := p.(*simPartial)
		if !ok {
			return nil, fmt.Errorf("%w: partial", ErrWrongKey)
		}
		if epoch == -1 {
			epoch = sp.epoch
		} else if sp.epoch != epoch {
			return nil, ErrEpochMismatch
		}
		if seen[sp.index] {
			return nil, fmt.Errorf("%w: partial from %d", ErrDuplicateIndex, sp.index)
		}
		seen[sp.index] = true
		k := 0
		for k < len(tallies) && tallies[k].value.Cmp(sp.value) != 0 { //yosolint:vartime sim backend models the TDec functionality for sweeps, not its leakage profile
			k++
		}
		if k == len(tallies) {
			tallies = append(tallies, tally{value: sp.value})
		}
		tallies[k].count++
		if tallies[k].count > bestCount { //yosolint:vartime sim backend majority vote; not a protocol execution path
			bestCount = tallies[k].count
			best = sp.value
		}
	}
	if len(seen) < spk.t+1 {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewPartials, len(seen), spk.t+1)
	}
	return new(big.Int).Set(best), nil
}

// Reshare implements TKRes.
func (s *Sim) Reshare(pk PublicKey, sh KeyShare) ([]SubShare, error) {
	spk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	ssh, ok := sh.(*simShare)
	if !ok {
		return nil, fmt.Errorf("%w: key share", ErrWrongKey)
	}
	subs := make([]SubShare, spk.n)
	for j := 1; j <= spk.n; j++ {
		subs[j-1] = &simSub{from: ssh.index, to: j, epoch: ssh.epoch, size: s.SubShareSize()}
	}
	return subs, nil
}

// RecoverShare implements TKRec.
func (s *Sim) RecoverShare(pk PublicKey, index int, subs []SubShare) (KeyShare, error) {
	spk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	froms := map[int]bool{}
	epoch := -1
	for _, sub := range subs {
		ss, ok := sub.(*simSub)
		if !ok {
			return nil, fmt.Errorf("%w: subshare", ErrWrongKey)
		}
		if ss.to != index {
			return nil, fmt.Errorf("%w: subshare addressed to %d, not %d", ErrMalformedMessage, ss.to, index)
		}
		if epoch == -1 {
			epoch = ss.epoch
		} else if ss.epoch != epoch {
			return nil, ErrEpochMismatch
		}
		if froms[ss.from] {
			return nil, fmt.Errorf("%w: subshare from %d", ErrDuplicateIndex, ss.from)
		}
		froms[ss.from] = true
	}
	if len(froms) < spk.t+1 {
		return nil, fmt.Errorf("%w: have %d subshares, need %d", ErrTooFewPartials, len(froms), spk.t+1)
	}
	return &simShare{index: index, epoch: epoch + 1, size: s.KeyShareSize()}, nil
}

// SimPartialDecrypt implements the Simulator hook trivially: the ideal
// functionality can always open to the target.
func (s *Sim) SimPartialDecrypt(pk PublicKey, _ Ciphertext, target *big.Int,
	corrupt []KeyShare, honest []int) ([]PartialDec, error) {
	if _, err := s.pub(pk); err != nil {
		return nil, err
	}
	epoch := 0
	for _, c := range corrupt {
		epoch = c.Epoch()
	}
	sort.Ints(honest)
	out := make([]PartialDec, len(honest))
	for i, j := range honest {
		out[i] = &simPartial{index: j, epoch: epoch, value: new(big.Int).Set(target), size: s.PartialSize()}
	}
	return out, nil
}

func (s *Sim) pub(pk PublicKey) (*simPK, error) {
	spk, ok := pk.(*simPK)
	if !ok {
		return nil, fmt.Errorf("%w: public key", ErrWrongKey)
	}
	return spk, nil
}
