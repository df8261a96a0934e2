package tte

import (
	"math/big"
	"sort"
)

// Sim is the ideal-functionality backend. It performs the same integer
// arithmetic as the real scheme on in-the-clear values while *modelling*
// wire sizes for a deployment with the configured modulus, so that
// communication sweeps at committee sizes in the thousands measure the
// same byte counts the real backend would produce, without big-integer
// exponentiations dominating wall clock. Its messages and codec are the
// real backend's, in widths its keys pin for the modelled modulus (a
// sub-share's is a constant, its key share plus the masking slack). A
// TEval's value and bound are word sums (evalSums), in one result object
// and one slab of words, whatever the number of terms.
//
// Sim provides no confidentiality. It exists for scaling experiments and is
// cross-checked against Threshold at small n by the test suite.
type Sim struct {
	// ModulusBits is the modelled Paillier modulus size (e.g. 2048).
	ModulusBits int
	codec
}

// NewSim returns a Sim backend modelling the given modulus size.
func NewSim(modulusBits int) *Sim {
	if modulusBits <= 0 {
		modulusBits = 2048
	}
	return &Sim{ModulusBits: modulusBits, codec: codec{scheme: "sim"}}
}

// CiphertextSize is the modelled width of an element of Z_{N²}, which its
// keys pin for every message but a sub-share (publicKey.SubShareSize).
func (s *Sim) CiphertextSize() int { return s.ModulusBits / 4 }

// MaxPlaintext is the largest plaintext bound of the modelled key, ≈ N/4 —
// what its public keys report and what costmodel sizes slot-packed openings
// by.
func (s *Sim) MaxPlaintext() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(s.ModulusBits-2))
}

// KeyGen implements TKGen.
func (s *Sim) KeyGen(n, t int) (PublicKey, []KeyShare, error) {
	if err := checkCommittee(n, t); err != nil {
		return nil, nil, err
	}
	shares := make([]KeyShare, n)
	for i := range shares {
		shares[i] = &keyShare{index: i + 1, size: s.CiphertextSize()}
	}
	return &publicKey{scheme: s.scheme, n: n, t: t, maxPlain: s.MaxPlaintext(), ctBytes: s.CiphertextSize()}, shares, nil
}

// Encrypt implements TEnc as a batch of one.
func (s *Sim) Encrypt(pk PublicKey, m, bound *big.Int) (Ciphertext, error) {
	return first(s.EncryptMany(pk, []*big.Int{m}, bound, 1))
}

// EncryptMany implements the batched TEnc. The sim backend has no
// exponentiations to amortize; the batch exists so sweeps exercise the same
// driver paths as the real backend.
func (s *Sim) EncryptMany(pk PublicKey, ms []*big.Int, bound *big.Int, _ int) ([]Ciphertext, error) {
	p, err := s.plaintexts(pk, bound, ms)
	if err != nil {
		return nil, err
	}
	// The batch's ciphertexts, their values and the values' words come from
	// one slab each: copies of ms, so the caller may wipe its plaintexts.
	words := 0
	for _, m := range ms {
		words += len(m.Bits())
	}
	ws := make([]big.Word, words)
	vals := make([]big.Int, len(ms))
	cts := make([]ciphertext, len(ms))
	out := make([]Ciphertext, len(ms))
	shared := new(big.Int).Set(bound)
	for i, m := range ms {
		w := copy(ws, m.Bits())
		vals[i].SetBits(ws[:w:w])
		ws = ws[w:]
		cts[i] = ciphertext{value: &vals[i], bound: shared, size: p.ctBytes}
		out[i] = &cts[i]
	}
	return out, nil
}

// evaluated is a Sim TEval result in one allocation: the ciphertext and
// the value and bound it points to. Their words are one more.
type evaluated struct {
	ct           ciphertext
	value, bound big.Int
}

// Eval implements TEval.
func (s *Sim) Eval(pk PublicKey, cts []Ciphertext, coeffs []*big.Int) (Ciphertext, error) {
	out := new(evaluated)
	p, err := s.evalSums(pk, cts, coeffs, &out.bound, &out.value)
	if err != nil {
		return nil, err
	}
	out.ct = ciphertext{value: &out.value, bound: &out.bound, size: p.ctBytes}
	return &out.ct, nil
}

// PartialDecrypt implements TPDec. The partial holds the ciphertext's
// value, which neither ever modifies.
func (s *Sim) PartialDecrypt(pk PublicKey, sh KeyShare, ct Ciphertext) (PartialDec, error) {
	p, k, c, err := s.operands(pk, sh, ct)
	if err != nil {
		return nil, err
	}
	return &partial{index: k.index, epoch: k.epoch, size: p.ctBytes, v: c.value}, nil
}

// Combine implements TDec: the majority value among > t partials with
// distinct indices and a consistent epoch.
func (s *Sim) Combine(pk PublicKey, _ Ciphertext, parts []PartialDec) (*big.Int, error) {
	_, ps, _, err := s.partials(pk, parts)
	if err != nil {
		return nil, err
	}
	// The vote runs on the integers themselves: one count per distinct
	// value, so an honest run compares every partial against a single
	// candidate.
	var values []*big.Int
	var counts []int
	best := 0
	for _, q := range ps {
		k := 0
		for k < len(values) && values[k].Cmp(q.v) != 0 { //yosolint:vartime sim backend models the TDec functionality for sweeps, not its leakage profile
			k++
		}
		if k == len(values) {
			values, counts = append(values, q.v), append(counts, 0)
		}
		counts[k]++
		if counts[k] > counts[best] { //yosolint:vartime sim backend majority vote; not a protocol execution path
			best = k
		}
	}
	return new(big.Int).Set(values[best]), nil
}

// Reshare implements TKRes.
func (s *Sim) Reshare(pk PublicKey, sh KeyShare) ([]SubShare, error) {
	p, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	k, err := s.share(sh)
	if err != nil {
		return nil, err
	}
	subs := make([]SubShare, p.n)
	slab := make([]subShare, p.n)
	size := p.SubShareSize(k.epoch)
	for j := range subs {
		slab[j] = subShare{from: k.index, to: j + 1, epoch: k.epoch, size: size}
		subs[j] = &slab[j]
	}
	return subs, nil
}

// RecoverShare implements TKRec.
func (s *Sim) RecoverShare(pk PublicKey, index int, subs []SubShare) (KeyShare, error) {
	p, _, epoch, err := s.subShares(pk, index, subs)
	if err != nil {
		return nil, err
	}
	return &keyShare{index: index, epoch: epoch + 1, size: p.SubShareSize(epoch + 1)}, nil
}

// SimPartialDecrypt implements the Simulator hook trivially: the ideal
// functionality can always open to the target.
func (s *Sim) SimPartialDecrypt(pk PublicKey, _ Ciphertext, target *big.Int,
	corrupt []KeyShare, honest []int) ([]PartialDec, error) {
	p, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	epoch := 0
	for _, c := range corrupt {
		epoch = c.Epoch()
	}
	sort.Ints(honest)
	out := make([]PartialDec, len(honest))
	for i, j := range honest {
		out[i] = &partial{index: j, epoch: epoch, size: p.ctBytes, v: new(big.Int).Set(target)}
	}
	return out, nil
}
