package tte

import (
	"bytes"
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
				if len(buf) != pk.CiphertextSize() {
					t.Errorf("partial encodes to %d bytes, want the key's %d", len(buf), pk.CiphertextSize())
				}
				p2, err := s.DecodePartial(pk, p.Index(), p.Epoch(), buf)
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
					buf, err := s.AppendSubShare(nil, sub)
					if err != nil {
						t.Fatal(err)
					}
					if len(buf) != pk.SubShareSize(0) {
						t.Errorf("sub-share encodes to %d bytes, want the key's %d", len(buf), pk.SubShareSize(0))
					}
					sub2, err := s.DecodeSubShare(pk, sub.From(), sub.To(), 0, buf)
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
			part, sub := pk.CiphertextSize(), pk.SubShareSize(0)
			for _, bad := range [][]byte{nil, {1}, make([]byte, part-1), make([]byte, part+1)} {
				if _, err := s.DecodePartial(pk, 1, 0, bad); err == nil {
					t.Errorf("DecodePartial accepted %d bytes", len(bad))
				}
			}
			for _, bad := range [][]byte{nil, {0}, make([]byte, sub-1), make([]byte, sub+1)} {
				if _, err := s.DecodeSubShare(pk, 1, 2, 0, bad); err == nil {
					t.Errorf("DecodeSubShare accepted %d bytes", len(bad))
				}
			}
			// A sign byte is 0 or 1.
			signed := make([]byte, sub)
			signed[0] = 2
			if _, err := s.DecodeSubShare(pk, 1, 2, 0, signed); !errors.Is(err, ErrMalformedMessage) {
				t.Errorf("DecodeSubShare accepted sign byte 2: %v", err)
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
	if len(buf) != s.CiphertextSize() {
		t.Errorf("encoded sim partial is %d bytes, want modelled %d", len(buf), s.CiphertextSize())
	}
}

// TestEncodeBigNegative round-trips signed values through a sign byte and a
// fixed-width magnitude, and refuses what its field cannot hold rather than
// truncating it.
func TestEncodeBigNegative(t *testing.T) {
	for _, v := range []*big.Int{big.NewInt(-123456), big.NewInt(123456), new(big.Int)} {
		buf, err := appendInt([]byte{0xAA}, v, 5, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != 6 || buf[0] != 0xAA {
			t.Fatalf("%v: %x, want the prefix and a 5-byte field", v, buf)
		}
		got, err := decodeInt(buf[1:], 5, true)
		if err != nil || got.Cmp(v) != 0 {
			t.Errorf("%v round-trips to %v (%v)", v, got, err)
		}
	}
	for _, tc := range []struct {
		v      int64
		size   int
		signed bool
	}{{1 << 32, 4, true}, {1 << 32, 4, false}, {-1, 8, false}, {0, 0, true}} {
		if _, err := appendInt(nil, big.NewInt(tc.v), tc.size, tc.signed); !errors.Is(err, ErrMalformedMessage) {
			t.Errorf("%d in %d bytes (signed %v): err = %v, want ErrMalformedMessage", tc.v, tc.size, tc.signed, err)
		}
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
			wrongTag[0] = tagPubInfo + 1
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

// putAbs and appendInt write whole words themselves; FillBytes is the
// reference, for every value length from 0 to three words and then some, in
// a field up to 9 bytes wider: putAbs's zeroed between neighbours it must
// leave alone, appendInt's behind a prefix in dirty spare capacity.
func TestPutAbsMatchesFillBytes(t *testing.T) {
	prefix, suffix := []byte{0xAA, 0xBB, 0xCC}, []byte{0xDD}
	for size := 0; size <= 3*wordBytes+3; size++ {
		raw := make([]byte, size)
		for i := range raw {
			raw[i] = byte(0xF1 ^ i*37)
		}
		if size > 0 {
			raw[0] |= 0x80
		}
		v := new(big.Int).SetBytes(raw)
		for pad := 0; pad <= 9; pad++ {
			n := size + pad
			want := append(append(append([]byte(nil), prefix...), v.FillBytes(make([]byte, n))...), suffix...)
			got := append(append(append([]byte(nil), prefix...), make([]byte, n)...), suffix...)
			putAbs(got[len(prefix):len(prefix)+n], v)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d value bytes in a %d-byte field: %x, want %x", size, n, got, want)
			}
			dirty := append(append([]byte(nil), prefix...), bytes.Repeat([]byte{0xEE}, n)...)
			got, err := appendInt(dirty[:len(prefix)], v, n, false)
			if want := want[:len(want)-len(suffix)]; err != nil || !bytes.Equal(got, want) {
				t.Fatalf("appendInt, %d value bytes in a %d-byte field: %x, want %x (%v)", size, n, got, want, err)
			}
		}
	}
}

// appendInt writes a value straight from its words: encoding one, secret
// or not, into a buffer with room allocates nothing, so no copy of it
// outlives the encode — also for a field wider than 640 bytes, here a
// 3072-bit key's ciphertext width, and for a nil (Sim) value.
func TestAppendIntMakesNoCopy(t *testing.T) {
	const size = 2 * 3072 / 8
	v := new(big.Int).Lsh(big.NewInt(3), 8*(size-2))
	neg := new(big.Int).Neg(v)
	buf := make([]byte, 0, size)
	for _, tc := range []struct {
		name   string
		v      *big.Int
		signed bool
	}{{"unsigned", v, false}, {"signed", neg, true}, {"nil", nil, true}} {
		if allocs := testing.AllocsPerRun(10, func() {
			if _, err := appendInt(buf[:0], tc.v, size, tc.signed); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: appendInt of a %d-byte field allocated %v times", tc.name, size, allocs)
		}
	}
}

// A posting of ciphertexts decodes into four slabs — ciphertexts, their
// interfaces, values and words — however many it holds, on both backends:
// each value's words are filled in place, never allocated per value.
func TestDecodeCiphertextsAllocations(t *testing.T) {
	for name, s := range codecBackends(t) {
		pk, _, err := s.KeyGen(3, 1)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := s.Encrypt(pk, big.NewInt(1<<40), big.NewInt(1<<41))
		if err != nil {
			t.Fatal(err)
		}
		enc, err := s.EncodeCiphertext(ct)
		if err != nil {
			t.Fatal(err)
		}
		for _, count := range []int{1, 64} {
			data := bytes.Repeat(enc, count)
			bounds := make([]*big.Int, count)
			if allocs := testing.AllocsPerRun(10, func() {
				cts, err := s.DecodeCiphertexts(pk, bounds, data)
				if err != nil || len(cts) != count {
					t.Fatalf("%s: %d of %d decoded: %v", name, len(cts), count, err)
				}
			}); allocs > 4 {
				t.Errorf("%s: decoding %d ciphertexts allocated %v times, want at most 4", name, count, allocs)
			}
		}
	}
}
