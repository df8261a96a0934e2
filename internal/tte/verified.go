package tte

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"yosompc/internal/modexp"
	"yosompc/internal/nizk"
)

// Shoup-style verification keys for publicly checkable partial
// decryptions: at key generation the dealer publishes a random square
// v ∈ Z*_{N²} and per-party keys V_i = v^{Δ·d_i}. A partial
// decryption p = c^{2Δ·d_i} is certified by an equality-of-exponents
// proof between (c², p) and (v, V_i) with witness 2Δ·d_i.
//
// These are the *real* analogues of the attested proofs the protocol
// driver uses for its composite statements; they demonstrate that the
// partial-decryption leg of the paper's Re-encrypt/Decrypt relation is
// realizable with standard sigma protocols.

// VerificationKeys certify partial decryptions of one key epoch.
type VerificationKeys struct {
	// V is the base, a random square in Z*_{N²}.
	V *big.Int
	// Keys[i-1] is V^(Δ·d_i) for party i.
	Keys []*big.Int
	// Epoch is the key epoch these keys certify.
	Epoch int
	// WitnessBound bounds |Δ·d_i| for proof sizing.
	WitnessBound *big.Int
}

// ErrNoVerification marks operations that need a verified keygen.
var ErrNoVerification = errors.New("tte: verification keys unavailable")

// KeyGenVerified is KeyGen plus Shoup verification keys.
func (s *Threshold) KeyGenVerified(n, t int) (PublicKey, []KeyShare, *VerificationKeys, error) {
	pk, shares, err := s.KeyGen(n, t)
	if err != nil {
		return nil, nil, nil, err
	}
	tpk := pk.(*publicKey)
	// v = r² mod N² for random r — a generator of the squares w.h.p.
	r, err := rand.Int(s.random, s.dealer.N2)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("tte: sampling verification base: %w", err)
	}
	v := new(big.Int).Mul(r, r)
	v.Mod(v, s.dealer.N2)
	if v.Sign() == 0 {
		v = big.NewInt(4)
	}
	vk := &VerificationKeys{V: v, Keys: make([]*big.Int, n), Epoch: 0}
	// The witness bound must derive from public quantities only: the
	// verification keys travel to every verifier, and a bound equal to
	// 2Δ·N·m would hand out the secret m = p'q' (divide by the known
	// 2Δ·N) and with it N's factorization. m < N/4 for a safe-prime
	// modulus, so 2Δ·N·(N/4) over-bounds |Δ·d_i| and is sound: the
	// bound only sizes the proof's masking randomness, where bigger
	// still hides.
	nm := new(big.Int).Mul(s.dealer.N, new(big.Int).Rsh(s.dealer.N, 2))
	vk.WitnessBound = new(big.Int).Mul(nm, tpk.delta)
	vk.WitnessBound.Lsh(vk.WitnessBound, 1)
	// All n keys share the base v: KeyGenVerified builds one fixed-base
	// table for it, sized to the witness bound, and drops it on return.
	table := modexp.NewFixedBase(v, s.dealer.N2, vk.WitnessBound.BitLen())
	for i, sh := range shares {
		vk.Keys[i] = table.Exp(new(big.Int).Mul(tpk.delta, sh.(*keyShare).d))
	}
	return pk, shares, vk, nil
}

// ProvePartial produces the equality-of-exponents proof certifying that
// `part` is the correct partial decryption of ct under share sh.
func (s *Threshold) ProvePartial(pk PublicKey, sh KeyShare, ct Ciphertext,
	part PartialDec, vk *VerificationKeys) (*nizk.EqExpProof, error) {
	tpk, tsh, tct, err := s.operands(pk, sh, ct)
	if err != nil {
		return nil, err
	}
	tp, ok := part.(*partial)
	if !ok {
		return nil, fmt.Errorf("%w: partial", ErrWrongKey)
	}
	if vk == nil || tsh.index > len(vk.Keys) {
		return nil, ErrNoVerification
	}
	if vk.Epoch != tsh.epoch {
		return nil, fmt.Errorf("%w: keys for epoch %d, share at %d", ErrEpochMismatch, vk.Epoch, tsh.epoch)
	}
	// part = (c²)^(Δ·d_i) and V_i = v^(Δ·d_i): witness w = Δ·d_i over
	// bases g1 = c², g2 = v.
	g1 := new(big.Int).Mul(tct.value, tct.value)
	g1.Mod(g1, s.dealer.N2)
	w := new(big.Int).Mul(tpk.delta, tsh.d)
	return nizk.ProveEqExp(s.dealer.N2, g1, vk.V, tp.v, vk.Keys[tsh.index-1], w, vk.WitnessBound)
}

// VerifyPartial checks a ProvePartial proof.
func (s *Threshold) VerifyPartial(pk PublicKey, index int, ct Ciphertext,
	part PartialDec, vk *VerificationKeys, proof *nizk.EqExpProof) bool {
	if _, err := s.pub(pk); err != nil {
		return false
	}
	tct, ok := ct.(*ciphertext)
	if !ok {
		return false
	}
	tp, ok := part.(*partial)
	if !ok || tp.index != index {
		return false
	}
	if vk == nil || index < 1 || index > len(vk.Keys) || vk.Epoch != tp.epoch {
		return false
	}
	g1 := new(big.Int).Mul(tct.value, tct.value)
	g1.Mod(g1, s.dealer.N2)
	return nizk.VerifyEqExp(s.dealer.N2, g1, vk.V, tp.v, vk.Keys[index-1], proof)
}
