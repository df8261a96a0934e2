package tte

import (
	"encoding/binary"
	"errors"
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

// TestPublicKeyInfoRoundTrip decodes both backends' announcements back to
// the parameters KeyGen was given, and checks that the untrusted-bytes
// decoder refuses everything the encoder cannot have produced.
func TestPublicKeyInfoRoundTrip(t *testing.T) {
	for name, s := range codecBackends(t) {
		t.Run(name, func(t *testing.T) {
			pk, _, err := s.KeyGen(5, 2)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := s.EncodePublicKey(pk)
			if err != nil {
				t.Fatal(err)
			}
			n, th, ctBytes, err := DecodePublicKeyInfo(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != 5 || th != 2 {
				t.Errorf("decoded n=%d t=%d, want 5 and 2", n, th)
			}
			if want := max(pubInfoHeader, ctBytes/2); len(buf) != want {
				t.Errorf("announcement is %d bytes, the decoded width %d pins %d", len(buf), ctBytes, want)
			}

			patch := func(off int, v uint32) []byte {
				out := append([]byte(nil), buf...)
				binary.BigEndian.PutUint32(out[off:], v)
				return out
			}
			wrongTag := append([]byte(nil), buf...)
			wrongTag[0] = tagKeyShare
			bad := map[string][]byte{
				"empty":       nil,
				"truncated":   buf[:pubInfoHeader-1],
				"one short":   buf[:len(buf)-1],
				"over-long":   append(append([]byte(nil), buf...), 0),
				"wrong tag":   wrongTag,
				"n = 0":       patch(1, 0),
				"t = n":       patch(5, 5),
				"t > n":       patch(5, 6),
				"wider ct":    patch(9, uint32(ctBytes)+2),
				"narrower ct": patch(9, uint32(ctBytes)-2),
			}
			for what, data := range bad {
				if _, _, _, err := DecodePublicKeyInfo(data); !errors.Is(err, ErrMalformedMessage) {
					t.Errorf("%s: err = %v, want ErrMalformedMessage", what, err)
				}
			}
		})
	}
}
