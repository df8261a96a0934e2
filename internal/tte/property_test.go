package tte

import (
	"bytes"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"yosompc/internal/paillier"
)

// Property-based tests on the TE homomorphism, run on the ideal backend
// for speed (the real backend is exercised by the table-driven suite; the
// algebra under test is identical by the cross-backend tests).

func TestEvalLinearityProperty(t *testing.T) {
	s := NewSim(512)
	pk, shares, err := s.KeyGen(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(msgs []uint32, coeffs []uint16) bool {
		n := len(msgs)
		if len(coeffs) < n {
			n = len(coeffs)
		}
		if n == 0 {
			return true
		}
		msgs, coeffs = msgs[:n], coeffs[:n]
		cts := make([]Ciphertext, n)
		cs := make([]*big.Int, n)
		want := new(big.Int)
		for i := 0; i < n; i++ {
			m := big.NewInt(int64(msgs[i]))
			ct, err := s.Encrypt(pk, m, big.NewInt(1<<32))
			if err != nil {
				return false
			}
			cts[i] = ct
			cs[i] = big.NewInt(int64(coeffs[i]))
			want.Add(want, new(big.Int).Mul(cs[i], m))
		}
		sum, err := s.Eval(pk, cts, cs)
		if err != nil {
			return false
		}
		parts := make([]PartialDec, 2)
		for j := 0; j < 2; j++ {
			p, err := s.PartialDecrypt(pk, shares[j], sum)
			if err != nil {
				return false
			}
			parts[j] = p
		}
		got, err := s.Combine(pk, sum, parts)
		return err == nil && got.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEvalComposesProperty(t *testing.T) {
	// Eval(Eval(x,a), b) ≡ Eval(x, a·b): nested linear combinations
	// compose (the offline phase chains TEval through the circuit).
	s := NewSim(512)
	pk, shares, err := s.KeyGen(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(m uint32, a, b uint16) bool {
		ct, err := s.Encrypt(pk, big.NewInt(int64(m)), big.NewInt(1<<32))
		if err != nil {
			return false
		}
		inner, err := s.Eval(pk, []Ciphertext{ct}, []*big.Int{big.NewInt(int64(a))})
		if err != nil {
			return false
		}
		outer, err := s.Eval(pk, []Ciphertext{inner}, []*big.Int{big.NewInt(int64(b))})
		if err != nil {
			return false
		}
		direct, err := s.Eval(pk, []Ciphertext{ct},
			[]*big.Int{new(big.Int).Mul(big.NewInt(int64(a)), big.NewInt(int64(b)))})
		if err != nil {
			return false
		}
		open := func(c Ciphertext) *big.Int {
			parts := make([]PartialDec, 2)
			for j := 0; j < 2; j++ {
				p, err := s.PartialDecrypt(pk, shares[j], c)
				if err != nil {
					return nil
				}
				parts[j] = p
			}
			v, err := s.Combine(pk, c, parts)
			if err != nil {
				return nil
			}
			return v
		}
		vo, vd := open(outer), open(direct)
		return vo != nil && vd != nil && vo.Cmp(vd) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReshareIsTransparentProperty(t *testing.T) {
	// Decryption commutes with resharing: for random messages and random
	// reshare subsets, epoch-1 shares open the same plaintext.
	s := NewSim(512)
	const n, tt = 5, 2
	pk, shares, err := s.KeyGen(n, tt)
	if err != nil {
		t.Fatal(err)
	}
	f := func(m uint32, pick uint8) bool {
		ct, err := s.Encrypt(pk, big.NewInt(int64(m)), big.NewInt(1<<32))
		if err != nil {
			return false
		}
		// Choose t+1 = 3 distinct resharers from the 5 parties.
		resharers := []int{1 + int(pick)%5, 1 + int(pick/5)%5, 0}
		seen := map[int]bool{}
		var rs []int
		for _, x := range resharers[:2] {
			if !seen[x] {
				seen[x] = true
				rs = append(rs, x)
			}
		}
		for x := 1; len(rs) < tt+1 && x <= n; x++ {
			if !seen[x] {
				seen[x] = true
				rs = append(rs, x)
			}
		}
		byTarget := map[int][]SubShare{}
		for _, i := range rs {
			subs, err := s.Reshare(pk, shares[i-1])
			if err != nil {
				return false
			}
			for _, sub := range subs {
				byTarget[sub.To()] = append(byTarget[sub.To()], sub)
			}
		}
		var parts []PartialDec
		for j := 1; j <= tt+1; j++ {
			sh, err := s.RecoverShare(pk, j, byTarget[j])
			if err != nil {
				return false
			}
			p, err := s.PartialDecrypt(pk, sh, ct)
			if err != nil {
				return false
			}
			parts = append(parts, p)
		}
		got, err := s.Combine(pk, ct, parts)
		return err == nil && got.Cmp(big.NewInt(int64(m))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSubShareWidthsHoldEveryRecovery runs the real backend's resharing
// four times over, epochs 0 to 3, for every committee n ≤ 16 and every
// threshold t < n. Each epoch's shares are recovered twice: from the first
// t+1 senders, and from the last t+1, the points farthest from 0, whose Λ_i
// are the largest and so grow a share the most; the next epoch reshares the
// latter. Every sub-share and every recovered key share must encode to its
// key's width, and a value one bit past a width is refused, not truncated.
func TestSubShareWidthsHoldEveryRecovery(t *testing.T) {
	s, err := NewThreshold(paillier.FixedTestKey(1))
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 16; n++ {
		for th := 0; th < n; th++ {
			pk, shares, err := s.KeyGen(n, th)
			if err != nil {
				t.Fatal(err)
			}
			for epoch := range 4 {
				width := pk.SubShareSize(epoch)
				byTarget := make([][]SubShare, n)
				for _, sh := range shares {
					subs, err := s.Reshare(pk, sh)
					if err != nil {
						t.Fatal(err)
					}
					for j, sub := range subs {
						enc, err := s.AppendSubShare(nil, sub)
						if err != nil || len(enc) != width {
							t.Fatalf("n=%d t=%d epoch %d: sub-share %d→%d encodes to %d bytes, width %d (%v)",
								n, th, epoch, sub.From(), sub.To(), len(enc), width, err)
						}
						byTarget[j] = append(byTarget[j], sub)
					}
				}
				next := make([]KeyShare, n)
				for j, subs := range byTarget {
					for _, from := range [][]SubShare{subs[:th+1], subs[n-th-1:]} {
						sh, err := s.RecoverShare(pk, j+1, from)
						if err != nil {
							t.Fatal(err)
						}
						if enc, err := s.EncodeKeyShare(sh); err != nil || len(enc) != pk.SubShareSize(epoch+1) {
							t.Fatalf("n=%d t=%d epoch %d: recovered share %d encodes to %d bytes, width %d (%v)",
								n, th, epoch+1, j+1, len(enc), pk.SubShareSize(epoch+1), err)
						}
						next[j] = sh
					}
				}
				shares = next
			}
			over := &subShare{from: 1, to: 1, size: pk.SubShareSize(0), v: new(big.Int).Lsh(big.NewInt(-1), uint(8*(pk.SubShareSize(0)-1)))}
			if got, err := s.AppendSubShare([]byte{7}, over); !errors.Is(err, ErrMalformedMessage) || !bytes.Equal(got, []byte{7}) {
				t.Fatalf("n=%d t=%d: a sub-share one bit past its width gives %x, %v", n, th, got, err)
			}
		}
	}
}
