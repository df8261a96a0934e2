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

// TestGoldenEncodings pins the byte-exact encoding of every TE message on
// both backends (docs/WIRE.md): a public-key announcement, a ciphertext, a
// partial decryption, a sub-share (negative on the real backend) and a key
// share, with Sim at its padded lengths. The vectors are hand-written from
// the layout, not recorded from the code. Everything goes through decoding
// or deterministic algorithms, so no randomness reaches the bytes: the key
// share is TKRec of two decoded sub-shares.
func TestGoldenEncodings(t *testing.T) {
	real, err := NewThreshold(paillier.FixedTestKey(1))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(512)
	if sim.CiphertextSize() != 128 || sim.PartialSize() != 128 || sim.KeyShareSize() != 128 || sim.SubShareSize() != 138 {
		t.Fatalf("sim(512) sizes %d/%d/%d/%d, want 128/128/128/138",
			sim.CiphertextSize(), sim.PartialSize(), sim.KeyShareSize(), sim.SubShareSize())
	}
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
		partial: unhex(t, "01 00000002 00000001 00 00000003 0a0b0c"),
		// Two epoch-0 sub-shares addressed to party 2: from 1 with value
		// −5, from 3 with value 7. With Δ = 3! the Λ at zero for {1, 3}
		// are 9 and −3, so the recovered share is 9·(−5) − 3·7 = −66.
		sub1:      unhex(t, "02 00000001 00000002 00000000 01 00000001 05"),
		sub3:      unhex(t, "02 00000003 00000002 00000000 00 00000001 07"),
		recovered: unhex(t, "03 00000002 00000001 01 00000001 42"),
	}, {
		name:      "sim",
		s:         sim,
		pub:       zeroPad(unhex(t, "04 00000003 00000001 00000080"), 64),
		partial:   zeroPad(unhex(t, "01 00000002 00000001 00 00000003 0a0b0c"), 128),
		sub1:      zeroPad(unhex(t, "02 00000001 00000002 00000000 00 00000000"), 138),
		sub3:      zeroPad(unhex(t, "02 00000003 00000002 00000000 00 00000000"), 138),
		recovered: zeroPad(unhex(t, "03 00000002 00000001 00 00000000"), 128),
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

			part, err := s.DecodePartial(pk, tc.partial)
			if err != nil {
				t.Fatal(err)
			}
			got, err = s.EncodePartial(part)
			check("partial", got, err, tc.partial)

			var subs []SubShare
			for _, enc := range [][]byte{tc.sub1, tc.sub3} {
				sub, err := s.DecodeSubShare(pk, enc)
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
	if want := zeroPad(unhex(t, "01 00000002 00000000 00 00000001 07"), 128); err != nil || !bytes.Equal(got, want) {
		t.Errorf("sim partial:\n got %x\nwant %x (%v)", got, want, err)
	}
	got, err = sim.EncodeKeyShare(shares[0])
	if want := zeroPad(unhex(t, "03 00000001 00000000 00 00000000"), 128); err != nil || !bytes.Equal(got, want) {
		t.Errorf("sim dealt key share:\n got %x\nwant %x (%v)", got, want, err)
	}
	subs, err := sim.Reshare(pk, shares[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err = sim.AppendSubShare(nil, subs[1])
	if want := zeroPad(unhex(t, "02 00000001 00000002 00000000 00 00000000"), 138); err != nil || !bytes.Equal(got, want) {
		t.Errorf("sim sub-share:\n got %x\nwant %x (%v)", got, want, err)
	}
}
