package tte

import (
	"math/big"
	"testing"

	"yosompc/internal/paillier"
)

func codecBackends(t *testing.T) map[string]interface {
	Scheme
	Codec
} {
	t.Helper()
	real, err := NewThreshold(paillier.FixedTestKey(1))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]interface {
		Scheme
		Codec
	}{
		"threshold-paillier": real,
		"sim":                NewSim(512),
	}
}

func TestPartialEncodeDecodeRoundTrip(t *testing.T) {
	for name, s := range codecBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			m := big.NewInt(2024)
			ct, err := s.Encrypt(pk, m, big.NewInt(10_000))
			if err != nil {
				t.Fatal(err)
			}
			var parts []PartialDec
			for _, i := range []int{2, 3} {
				p, err := s.PartialDecrypt(pk, shares[i-1], ct)
				if err != nil {
					t.Fatal(err)
				}
				buf, err := s.EncodePartial(p)
				if err != nil {
					t.Fatal(err)
				}
				p2, err := s.DecodePartial(pk, buf)
				if err != nil {
					t.Fatal(err)
				}
				if p2.Index() != p.Index() || p2.Epoch() != p.Epoch() {
					t.Errorf("metadata changed: %d/%d vs %d/%d", p2.Index(), p2.Epoch(), p.Index(), p.Epoch())
				}
				parts = append(parts, p2)
			}
			got, err := s.Combine(pk, ct, parts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(m) != 0 {
				t.Errorf("decrypt via decoded partials = %v, want %v", got, m)
			}
		})
	}
}

func TestSubShareEncodeDecodeRoundTrip(t *testing.T) {
	for name, s := range codecBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, shares, err := s.KeyGen(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			m := big.NewInt(5150)
			ct, err := s.Encrypt(pk, m, big.NewInt(10_000))
			if err != nil {
				t.Fatal(err)
			}
			// Reshare through serialization: every subshare crosses the wire.
			byTarget := make(map[int][]SubShare)
			for _, i := range []int{1, 4} {
				subs, err := s.Reshare(pk, shares[i-1])
				if err != nil {
					t.Fatal(err)
				}
				for _, sub := range subs {
					buf, err := s.EncodeSubShare(sub)
					if err != nil {
						t.Fatal(err)
					}
					sub2, err := s.DecodeSubShare(pk, buf)
					if err != nil {
						t.Fatal(err)
					}
					if sub2.From() != sub.From() || sub2.To() != sub.To() {
						t.Fatalf("metadata changed: %d→%d vs %d→%d", sub2.From(), sub2.To(), sub.From(), sub.To())
					}
					byTarget[sub2.To()] = append(byTarget[sub2.To()], sub2)
				}
			}
			next := make([]KeyShare, 4)
			for j := 1; j <= 4; j++ {
				sh, err := s.RecoverShare(pk, j, byTarget[j])
				if err != nil {
					t.Fatal(err)
				}
				next[j-1] = sh
			}
			got := decryptVia(t, s, pk, next, ct, []int{2, 3})
			if got.Cmp(m) != 0 {
				t.Errorf("decrypt after serialized resharing = %v, want %v", got, m)
			}
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for name, s := range codecBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, _, err := s.KeyGen(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, bad := range [][]byte{nil, {1}, {9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}} {
				if _, err := s.DecodePartial(pk, bad); err == nil {
					t.Errorf("DecodePartial accepted %v", bad)
				}
				if _, err := s.DecodeSubShare(pk, bad); err == nil {
					t.Errorf("DecodeSubShare accepted %v", bad)
				}
			}
			// Truncated value length.
			trunc := appendBig(nil, tagPartial, []uint32{1, 0}, big.NewInt(1))
			if _, err := s.DecodePartial(pk, trunc[:len(trunc)-1]); err == nil {
				t.Error("DecodePartial accepted truncated value")
			}
		})
	}
}

func TestSimEncodingPadsToModelledSize(t *testing.T) {
	s := NewSim(2048)
	pk, shares, err := s.KeyGen(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s.Encrypt(pk, big.NewInt(7), big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.PartialDecrypt(pk, shares[0], ct)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := s.EncodePartial(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != s.PartialSize() {
		t.Errorf("encoded sim partial is %d bytes, want modelled %d", len(buf), s.PartialSize())
	}
}

func TestEncodeBigNegative(t *testing.T) {
	v := big.NewInt(-123456)
	buf := appendBig(nil, tagSubShare, []uint32{1, 2, 3}, v)
	fields, got, err := decodeBig(tagSubShare, 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(v) != 0 {
		t.Errorf("negative value round trip = %v, want %v", got, v)
	}
	if fields[0] != 1 || fields[1] != 2 || fields[2] != 3 {
		t.Errorf("fields = %v", fields)
	}
}
