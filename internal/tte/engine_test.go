package tte

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"

	"yosompc/internal/modexp"
	"yosompc/internal/paillier"
)

// Differential tests pinning the modexp-engine hot paths (PartialDecrypt,
// Combine, Δ^epoch) bit-for-bit against the naive references
// below. "Equal" always means big.Int.Cmp == 0 on canonical residues,
// which for engine outputs is the same as byte equality.

// PartialDecryptNaive is the reference for PartialDecrypt: one
// full-length exponentiation modulo N², no CRT.
func (s *Threshold) PartialDecryptNaive(pk PublicKey, sh KeyShare, ct Ciphertext) (PartialDec, error) {
	tpk, tsh, tct, err := s.operands(pk, sh, ct)
	if err != nil {
		return nil, err
	}
	exp := new(big.Int).Lsh(tsh.d, 1) // 2·d_i
	exp.Mul(exp, tpk.delta)           // 2Δ·d_i
	v, err := modexp.ExpSigned(tct.value, exp, s.dealer.N2)
	if err != nil {
		return nil, err
	}
	return &partial{index: tsh.index, epoch: tsh.epoch, v: v}, nil
}

// CombineNaive is the reference for Combine: one exponentiation per
// partial and a fresh Δ^epoch exponentiation.
func (s *Threshold) CombineNaive(pk PublicKey, ct Ciphertext, parts []PartialDec) (*big.Int, error) {
	tpk, chosen, epoch, err := s.lowestPartials(pk, parts)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(chosen))
	for i, p := range chosen {
		idx[i] = p.index
	}
	lambdas, err := scaledLagrangeAtZero(tpk.delta, idx)
	if err != nil {
		return nil, err
	}
	acc := big.NewInt(1)
	for i, p := range chosen {
		exp := new(big.Int).Lsh(lambdas[i], 1) // 2Λ_i
		term, err := modexp.ExpSigned(p.v, exp, s.dealer.N2)
		if err != nil {
			return nil, err
		}
		acc.Mul(acc, term)
		acc.Mod(acc, s.dealer.N2)
	}
	lVal, err := s.dealer.L(acc)
	if err != nil {
		return nil, fmt.Errorf("%w: combination is not a valid decryption", ErrMalformedMessage)
	}
	div := new(big.Int).Mul(tpk.delta, tpk.delta)
	div.Lsh(div, 2)
	if epoch > 0 {
		div.Mul(div, deltaPowerNaive(s, tpk, epoch))
	}
	divInv := new(big.Int).ModInverse(div, s.dealer.N)
	if divInv == nil {
		return nil, errors.New("tte: combination divisor not invertible")
	}
	m := lVal.Mul(lVal, divInv)
	m.Mod(m, s.dealer.N)
	return m, nil
}

// deltaPowerNaive is the reference for deltaPower: Δ^epoch mod N by
// direct exponentiation.
func deltaPowerNaive(s *Threshold, tpk *publicKey, epoch int) *big.Int {
	return new(big.Int).Exp(tpk.delta, big.NewInt(int64(epoch)), s.dealer.N)
}

// EvalNaive is the reference for Eval: Eval's checks, then genericEval's
// sequential fold — every non-zero term its own ScalarMul, one included,
// multiplied in order with Add.
func (s *Threshold) EvalNaive(pk PublicKey, cts []Ciphertext, coeffs []*big.Int) (Ciphertext, error) {
	p, err := s.evalSums(pk, cts, coeffs, new(big.Int), nil)
	if err != nil {
		return nil, err
	}
	value, bound := genericEval(s, cts, coeffs)
	return &ciphertext{value: value, bound: bound, size: p.ctBytes}, nil
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
			ev, rv := eng.(*partial).v, ref.(*partial).v
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
// nonce-explicit (1 + mN)·r^N mod N² with a full-width r^N that it is
// pinned to (paillier's EncryptWithNonce) — the per-encryption ratio
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
	// A uniform r in Z_N is a unit except with negligible probability.
	r, err := rand.Int(rand.Reader, s.dealer.N)
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
		{"engine", func() error {
			c := new(big.Int).Exp(r, s.dealer.N, s.dealer.N2)
			c.Mul(c, new(big.Int).Add(bigOne(), new(big.Int).Mul(m, s.dealer.N)))
			c.Mod(c, s.dealer.N2)
			return nil
		}},
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
	tpk := pk.(*publicKey)
	// Non-monotone epochs, revisited.
	for _, epoch := range []int{0, 3, 1, 7, 2, 7} {
		eng, err := s.deltaPower(tpk, epoch)
		if err != nil {
			t.Fatalf("deltaPower(%d): %v", epoch, err)
		}
		if ref := deltaPowerNaive(s, tpk, epoch); eng.Cmp(ref) != 0 {
			t.Fatalf("epoch %d: Δ^e %v != naive %v", epoch, eng, ref)
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
// Montgomery-context cache stays safe under the scheme-level call pattern.
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

// evalFixture is a scheme at the given key with eight fresh ciphertexts of
// field-sized plaintexts under bound 2^64.
func evalFixture(tb testing.TB, key *paillier.PrivateKey) (*Threshold, PublicKey, []Ciphertext) {
	tb.Helper()
	s, err := NewThreshold(key)
	if err != nil {
		tb.Fatal(err)
	}
	pk, _, err := s.KeyGen(4, 1)
	if err != nil {
		tb.Fatal(err)
	}
	r := mrand.New(mrand.NewSource(5))
	ms := make([]*big.Int, 8)
	for i := range ms {
		ms[i] = new(big.Int).SetUint64(r.Uint64())
	}
	cts, err := s.EncryptMany(pk, ms, new(big.Int).Lsh(big.NewInt(1), 64), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return s, pk, cts
}

// TestThresholdEvalMatchesSequential pins Eval — coefficient-one terms
// multiplied in, every other term in one Straus product — against
// EvalNaive at the 512-bit and the 2048-bit key, bit for bit in value,
// bound and encoding, over coefficients 0, 1, field-sized and
// slot-width (2^w), alone and mixed.
func TestThresholdEvalMatchesSequential(t *testing.T) {
	keys := map[string]*paillier.PrivateKey{"512": paillier.FixedTestKey(0), "2048": paillier.FixedTestKey2048()}
	for name, key := range keys {
		s, pk, cts := evalFixture(t, key)
		r := mrand.New(mrand.NewSource(6))
		field := func() *big.Int { return new(big.Int).SetUint64(r.Uint64() >> 1) }
		slot := func(w uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), w) }
		zero, one := new(big.Int), big.NewInt(1)
		cases := [][]*big.Int{
			{},
			{zero}, {one}, {field()}, {slot(64)}, {slot(300)},
			{one, one},
			{one, zero, field(), slot(137), field(), one, zero, field()},
			{field(), field(), field(), field(), field(), field(), field(), field()},
			{slot(1), slot(63), slot(64), slot(65), slot(200), zero, one, field()},
			{zero, zero, zero},
		}
		for i, coeffs := range cases {
			in := cts[:len(coeffs)]
			got, err := s.Eval(pk, in, coeffs)
			if err != nil {
				t.Fatalf("key %s case %d: Eval: %v", name, i, err)
			}
			want, err := s.EvalNaive(pk, in, coeffs)
			if err != nil {
				t.Fatalf("key %s case %d: EvalNaive: %v", name, i, err)
			}
			g, w := got.(*ciphertext), want.(*ciphertext)
			if g.value.Cmp(w.value) != 0 || g.bound.Cmp(w.bound) != 0 {
				t.Fatalf("key %s case %d: Eval = (%v, bound %v), sequential = (%v, bound %v)", name, i, g.value, g.bound, w.value, w.bound)
			}
			ge, err1 := s.EncodeCiphertext(got)
			we, err2 := s.EncodeCiphertext(want)
			if err1 != nil || err2 != nil || !bytes.Equal(ge, we) {
				t.Fatalf("key %s case %d: encodings differ (%v, %v)", name, i, err1, err2)
			}
		}
	}
}

// BenchmarkThresholdEval times TEval at the production modulus against
// EvalNaive: "interp" is a packing row — eight ciphertexts under
// field-sized coefficients — and "cpart" a Beaver c-part, one ciphertext
// under one.
func BenchmarkThresholdEval(b *testing.B) {
	s, pk, cts := evalFixture(b, paillier.FixedTestKey2048())
	r := mrand.New(mrand.NewSource(7))
	coeffs := make([]*big.Int, len(cts))
	for i := range coeffs {
		coeffs[i] = new(big.Int).SetUint64(r.Uint64() >> 1)
	}
	for _, shape := range []struct {
		name string
		k    int
	}{{"interp", len(cts)}, {"cpart", 1}} {
		for _, v := range []struct {
			name string
			eval func(PublicKey, []Ciphertext, []*big.Int) (Ciphertext, error)
		}{{"engine", s.Eval}, {"naive", s.EvalNaive}} {
			b.Run(shape.name+"/"+v.name, func(b *testing.B) {
				for range b.N {
					if _, err := v.eval(pk, cts[:shape.k], coeffs[:shape.k]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
