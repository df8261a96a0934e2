package tte

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"yosompc/internal/modexp"
	"yosompc/internal/paillier"
)

// Differential tests pinning the modexp-engine hot paths (PartialDecrypt,
// Combine, Δ^epoch ladders) bit-for-bit against the naive references
// below. "Equal" always means big.Int.Cmp == 0 on canonical residues,
// which for engine outputs is the same as byte equality.

// PartialDecryptNaive is the reference for PartialDecrypt: one
// full-length exponentiation modulo N^{s+1}, no CRT.
func (s *Threshold) PartialDecryptNaive(pk PublicKey, sh KeyShare, ct Ciphertext) (PartialDec, error) {
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
	v, err := modexp.ExpSigned(tct.ct.C, exp, s.dj.Ns1)
	if err != nil {
		return nil, err
	}
	return &thresholdPartial{index: tsh.index, epoch: tsh.epoch, v: v, size: tpk.ctBytes}, nil
}

// CombineNaive is the reference for Combine: one exponentiation per
// partial and a fresh Δ^epoch exponentiation.
func (s *Threshold) CombineNaive(pk PublicKey, ct Ciphertext, parts []PartialDec) (*big.Int, error) {
	tpk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	chosen, epoch, err := selectPartials(parts, tpk.t)
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
	acc := big.NewInt(1)
	for i, p := range chosen {
		tp := p.(*thresholdPartial)
		exp := new(big.Int).Lsh(lambdas[i], 1) // 2Λ_i
		term, err := modexp.ExpSigned(tp.v, exp, s.dj.Ns1)
		if err != nil {
			return nil, err
		}
		acc.Mul(acc, term)
		acc.Mod(acc, s.dj.Ns1)
	}
	lVal, err := s.dj.DLogOnePlusN(acc)
	if err != nil {
		return nil, fmt.Errorf("%w: combination is not a valid decryption", ErrMalformedMessage)
	}
	div := new(big.Int).Mul(tpk.delta, tpk.delta)
	div.Lsh(div, 2)
	if epoch > 0 {
		div.Mul(div, deltaPowerNaive(s, tpk, epoch))
	}
	divInv := new(big.Int).ModInverse(div, s.dj.Ns)
	if divInv == nil {
		return nil, errors.New("tte: combination divisor not invertible")
	}
	m := lVal.Mul(lVal, divInv)
	m.Mod(m, s.dj.Ns)
	return m, nil
}

// deltaPowerNaive is the reference for deltaPower: Δ^epoch mod N^s by
// direct exponentiation.
func deltaPowerNaive(s *Threshold, tpk *thresholdPK, epoch int) *big.Int {
	return new(big.Int).Exp(tpk.delta, big.NewInt(int64(epoch)), s.dj.Ns)
}

func engineScheme(t *testing.T) (*Threshold, PublicKey, []KeyShare) {
	t.Helper()
	s, err := NewThreshold(paillier.FixedTestKey(0))
	if err != nil {
		t.Fatalf("NewThreshold: %v", err)
	}
	pk, shares, err := s.KeyGen(5, 2)
	if err != nil {
		t.Fatalf("KeyGen: %v", err)
	}
	return s, pk, shares
}

func TestPartialDecryptEngineMatchesNaive(t *testing.T) {
	s, pk, shares := engineScheme(t)
	ct, err := s.Encrypt(pk, big.NewInt(424242), big.NewInt(1<<20))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		for _, sh := range shares {
			eng, err := s.PartialDecrypt(pk, sh, ct)
			if err != nil {
				t.Fatalf("epoch %d PartialDecrypt(%d): %v", epoch, sh.Index(), err)
			}
			ref, err := s.PartialDecryptNaive(pk, sh, ct)
			if err != nil {
				t.Fatalf("epoch %d PartialDecryptNaive(%d): %v", epoch, sh.Index(), err)
			}
			ev, rv := eng.(*thresholdPartial).v, ref.(*thresholdPartial).v
			if ev.Cmp(rv) != 0 {
				t.Fatalf("epoch %d share %d: engine partial %v != naive %v", epoch, sh.Index(), ev, rv)
			}
		}
		// Epoch 1: reshared shares go negative over the integers, which
		// exercises the CRT path's negative-exponent reduction.
		shares = reshareAll(t, s, pk, shares, []int{1, 2, 3})
	}
}

func TestCombineEngineMatchesNaive(t *testing.T) {
	s, pk, shares := engineScheme(t)
	want := big.NewInt(987654321)
	ct, err := s.Encrypt(pk, want, big.NewInt(1<<31))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		var parts []PartialDec
		for _, sh := range shares[:3] {
			p, err := s.PartialDecrypt(pk, sh, ct)
			if err != nil {
				t.Fatalf("PartialDecrypt: %v", err)
			}
			parts = append(parts, p)
		}
		eng, err := s.Combine(pk, ct, parts)
		if err != nil {
			t.Fatalf("epoch %d Combine: %v", epoch, err)
		}
		ref, err := s.CombineNaive(pk, ct, parts)
		if err != nil {
			t.Fatalf("epoch %d CombineNaive: %v", epoch, err)
		}
		if eng.Cmp(ref) != 0 {
			t.Fatalf("epoch %d: engine Combine %v != naive %v", epoch, eng, ref)
		}
		if eng.Cmp(want) != 0 {
			t.Fatalf("epoch %d: Combine %v, want %v", epoch, eng, want)
		}
		shares = reshareAll(t, s, pk, shares, []int{1, 3, 5})
	}
}

// BenchmarkOpeningRound times the offline phase's opening-round kernel —
// t+1 partial decryptions and one Combine at n = 64, t = 4 (Δ = 64!) —
// engine against the naive references (E14b's ratio).
func BenchmarkOpeningRound(b *testing.B) {
	const n, t = 64, 4
	s, err := NewThreshold(paillier.FixedTestKey(0))
	if err != nil {
		b.Fatal(err)
	}
	pk, shares, err := s.KeyGen(n, t)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := s.Encrypt(pk, big.NewInt(123456789), big.NewInt(1<<30))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []struct {
		name    string
		partial func(PublicKey, KeyShare, Ciphertext) (PartialDec, error)
		combine func(PublicKey, Ciphertext, []PartialDec) (*big.Int, error)
	}{{"engine", s.PartialDecrypt, s.Combine}, {"naive", s.PartialDecryptNaive, s.CombineNaive}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			parts := make([]PartialDec, t+1)
			for i := 0; i < b.N; i++ {
				for j, sh := range shares[:t+1] {
					if parts[j], err = k.partial(pk, sh, ct); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := k.combine(pk, ct, parts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncrypt times TEnc at the production modulus: "randomizer" is
// the scheme's Encrypt (short ρ off the key's comb table), "engine" the
// nonce-explicit full-width r^N it is pinned to — the per-encryption ratio
// behind real2048_wide's tte.encrypt_us.
func BenchmarkEncrypt(b *testing.B) {
	s, err := NewThreshold(paillier.FixedTestKey2048())
	if err != nil {
		b.Fatal(err)
	}
	pk, _, err := s.KeyGen(8, 2)
	if err != nil {
		b.Fatal(err)
	}
	m, bound := big.NewInt(123456789), big.NewInt(1<<30)
	r, err := s.dealer.RandomUnit(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	// One untimed encryption builds the key's randomizer table.
	if _, err := s.Encrypt(pk, m, bound); err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		enc  func() error
	}{
		{"randomizer", func() error { _, err := s.Encrypt(pk, m, bound); return err }},
		{"engine", func() error { _, err := s.dj.EncryptWithNonce(m, r); return err }},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := v.enc(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestDeltaPowerEngineMatchesNaive(t *testing.T) {
	s, pk, _ := engineScheme(t)
	tpk := pk.(*thresholdPK)
	// Non-monotone epochs: the ladder must serve arbitrary revisit order.
	for _, epoch := range []int{0, 3, 1, 7, 2, 7} {
		eng, err := s.deltaPower(tpk, epoch)
		if err != nil {
			t.Fatalf("deltaPower(%d): %v", epoch, err)
		}
		if ref := deltaPowerNaive(s, tpk, epoch); eng.Cmp(ref) != 0 {
			t.Fatalf("epoch %d: ladder Δ^e %v != naive %v", epoch, eng, ref)
		}
	}
}

func TestThresholdEncryptManyRoundTrip(t *testing.T) {
	s, pk, shares := engineScheme(t)
	bound := big.NewInt(1 << 16)
	ms := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(65535), big.NewInt(31337)}
	cts, err := s.EncryptMany(pk, ms, bound, 3)
	if err != nil {
		t.Fatalf("EncryptMany: %v", err)
	}
	if len(cts) != len(ms) {
		t.Fatalf("EncryptMany returned %d ciphertexts, want %d", len(cts), len(ms))
	}
	for i, ct := range cts {
		got := decryptVia(t, s, pk, shares, ct, []int{1, 2, 4})
		if got.Cmp(ms[i]) != 0 {
			t.Fatalf("ciphertext %d decrypts to %v, want %v", i, got, ms[i])
		}
	}
}

func TestThresholdEncryptManyValidation(t *testing.T) {
	s, pk, _ := engineScheme(t)
	bound := big.NewInt(100)
	if _, err := s.EncryptMany(pk, []*big.Int{big.NewInt(5)}, nil, 1); err == nil {
		t.Fatal("EncryptMany accepted a nil bound")
	}
	if _, err := s.EncryptMany(pk, []*big.Int{big.NewInt(101)}, bound, 1); err == nil {
		t.Fatal("EncryptMany accepted m > bound")
	}
	if _, err := s.EncryptMany(pk, []*big.Int{big.NewInt(-1)}, bound, 1); err == nil {
		t.Fatal("EncryptMany accepted a negative plaintext")
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 4096)
	if _, err := s.EncryptMany(pk, []*big.Int{big.NewInt(5)}, huge, 1); err == nil {
		t.Fatal("EncryptMany accepted a bound beyond key capacity")
	}
}

// TestThresholdEngineHammer drives the cached hot paths from many
// goroutines at once; run with -race it witnesses that the engine's
// table/ladder caches stay safe under the scheme-level call pattern.
func TestThresholdEngineHammer(t *testing.T) {
	s, pk, shares := engineScheme(t)
	ct, err := s.Encrypt(pk, big.NewInt(7777), big.NewInt(1<<20))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				var parts []PartialDec
				for _, sh := range shares[:3] {
					p, err := s.PartialDecrypt(pk, sh, ct)
					if err != nil {
						errCh <- err
						return
					}
					parts = append(parts, p)
				}
				v, err := s.Combine(pk, ct, parts)
				if err != nil {
					errCh <- err
					return
				}
				if v.Int64() != 7777 {
					errCh <- errWrongOpen
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("hammer: %v", err)
	}
}

var errWrongOpen = &wrongOpenError{}

type wrongOpenError struct{}

func (*wrongOpenError) Error() string { return "combine opened to the wrong value" }
