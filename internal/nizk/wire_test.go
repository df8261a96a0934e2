package nizk

import (
	"bytes"
	"testing"
)

// TestProofEncodedSize pins the constant proof size model against the
// actual encoding.
func TestProofEncodedSize(t *testing.T) {
	var p Proof
	if p.EncodedSize() != AttestedProofSize {
		t.Fatalf("Proof.EncodedSize = %d, want %d", p.EncodedSize(), AttestedProofSize)
	}
	enc, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != p.EncodedSize() {
		t.Fatalf("Proof encoded to %d bytes, EncodedSize says %d", len(enc), p.EncodedSize())
	}
}

// FuzzProofRoundTrip feeds arbitrary bytes through the Proof decoder:
// only exact-size inputs are accepted, and accepted inputs round-trip
// identically.
func FuzzProofRoundTrip(f *testing.F) {
	f.Add(make([]byte, AttestedProofSize))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Proof
		if err := p.UnmarshalBinary(data); err != nil {
			if len(data) == AttestedProofSize {
				t.Fatalf("exact-size input rejected: %v", err)
			}
			return
		}
		if len(data) != AttestedProofSize {
			t.Fatalf("decoder accepted %d bytes, want exactly %d", len(data), AttestedProofSize)
		}
		enc, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("round trip changed bytes")
		}
	})
}
