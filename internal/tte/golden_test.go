package tte

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"strings"
	"testing"

	"yosompc/internal/paillier"
)

// unhex parses a golden vector written as space-separated hex fields.
func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// zeroPad returns b zero-extended to n bytes.
func zeroPad(b []byte, n int) []byte {
	return append(b, make([]byte, n-len(b))...)
}

// field returns a fixed-width field of n bytes: the sign byte, when sign is
// 0 or 1, then the magnitude right-aligned.
func field(sign int, magnitude []byte, n int) []byte {
	out := make([]byte, n)
	if sign >= 0 {
		out[0] = byte(sign)
	}
	copy(out[n-len(magnitude):], magnitude)
	return out
}

// TestGoldenEncodings pins the byte-exact encoding of every TE message on
// both backends (docs/WIRE.md): a public-key announcement, a ciphertext, a
// partial decryption, a sub-share (negative on the real backend) and a key
// share, each in its key's width. The vectors are hand-written from the
// layout, not recorded from the code. Everything goes through decoding or
// deterministic algorithms, so no randomness reaches the bytes: the key
// share is TKRec of two decoded sub-shares.
//
// Both keys' widths are 128 bytes for a ciphertext, a partial and a dealt
// key share. Sim's sub-share and recovered key share are 128 + σ/8 = 138.
// The real key's N has 512 bits, so for n = 3, t = 1 its epoch-0 bounds are
// d_0 = N·⌊N/4⌋ in [2^1020, 2^1022) and sub_0 = d_0·(1 + Δ·2^80·3) with
// Δ = 3!, 1105 to 1107 bits: a sub-share is a sign byte and 139 bytes. The
// recovered share is written in epoch 1's sub-share width: d_1 =
// Δ·C(3,1)·2^1·sub_0 = 36·sub_0 and sub_1 = d_1·(1 + Δ·2^80·3) have 1194 to
// 1196 bits, so it is a sign byte and 150 bytes.
func TestGoldenEncodings(t *testing.T) {
	real, err := NewThreshold(paillier.FixedTestKey(1))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(512)
	ctBytes := make([]byte, 128)
	for i := range ctBytes {
		ctBytes[i] = byte(i + 1)
	}

	for _, tc := range []struct {
		name string
		s    interface {
			Scheme
			Codec
		}
		pub, partial, sub1, sub3, recovered []byte
	}{{
		name:    "threshold-paillier",
		s:       real,
		pub:     zeroPad(unhex(t, "04 00000003 00000001 00000080"), 64),
		partial: field(-1, unhex(t, "0a0b0c"), 128),
		// Two epoch-0 sub-shares addressed to party 2: from 1 with value
		// −5, from 3 with value 7. With Δ = 3! the Λ at zero for {1, 3}
		// are 9 and −3, so the recovered share is 9·(−5) − 3·7 = −66.
		sub1:      field(1, []byte{0x05}, 140),
		sub3:      field(0, []byte{0x07}, 140),
		recovered: field(1, []byte{0x42}, 151),
	}, {
		name:      "sim",
		s:         sim,
		pub:       zeroPad(unhex(t, "04 00000003 00000001 00000080"), 64),
		partial:   field(-1, unhex(t, "0a0b0c"), 128),
		sub1:      field(0, nil, 138),
		sub3:      field(0, nil, 138),
		recovered: field(0, nil, 138),
	}} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			pk, _, err := s.KeyGen(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, got []byte, err error, want []byte) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s:\n got %x\nwant %x", what, got, want)
				}
			}

			got, err := s.EncodePublicKey(pk)
			check("public key", got, err, tc.pub)

			ct, err := s.DecodeCiphertext(pk, nil, ctBytes)
			if err != nil {
				t.Fatal(err)
			}
			got, err = s.EncodeCiphertext(ct)
			check("ciphertext", got, err, ctBytes)

			part, err := s.DecodePartial(pk, 2, 1, tc.partial)
			if err != nil {
				t.Fatal(err)
			}
			got, err = s.EncodePartial(part)
			check("partial", got, err, tc.partial)

			var subs []SubShare
			for i, enc := range [][]byte{tc.sub1, tc.sub3} {
				sub, err := s.DecodeSubShare(pk, 1+2*i, 2, 0, enc)
				if err != nil {
					t.Fatal(err)
				}
				got, err = s.AppendSubShare(nil, sub)
				check("sub-share", got, err, enc)
				subs = append(subs, sub)
			}
			sh, err := s.RecoverShare(pk, 2, subs)
			if err != nil {
				t.Fatal(err)
			}
			got, err = s.EncodeKeyShare(sh)
			check("key share", got, err, tc.recovered)
		})
	}

	// Sim's own algorithms produce the same layouts: a fresh ciphertext is
	// the plaintext in fixed width, a partial carries it in the clear, and
	// dealt shares and sub-shares carry no value.
	pk, shares, err := sim.KeyGen(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sim.Encrypt(pk, big.NewInt(7), big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.EncodeCiphertext(ct)
	if want := zeroPad(nil, 127); err != nil || !bytes.Equal(got, append(want, 7)) {
		t.Errorf("sim fresh ciphertext: %x, %v", got, err)
	}
	part, err := sim.PartialDecrypt(pk, shares[1], ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err = sim.EncodePartial(part)
	if want := field(-1, []byte{0x07}, 128); err != nil || !bytes.Equal(got, want) {
		t.Errorf("sim partial:\n got %x\nwant %x (%v)", got, want, err)
	}
	got, err = sim.EncodeKeyShare(shares[0])
	if want := field(-1, nil, 128); err != nil || !bytes.Equal(got, want) {
		t.Errorf("sim dealt key share:\n got %x\nwant %x (%v)", got, want, err)
	}
	subs, err := sim.Reshare(pk, shares[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err = sim.AppendSubShare(nil, subs[1])
	if want := field(0, nil, 138); err != nil || !bytes.Equal(got, want) {
		t.Errorf("sim sub-share:\n got %x\nwant %x (%v)", got, want, err)
	}
}
