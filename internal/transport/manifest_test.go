package transport

import (
	"bytes"
	"errors"
	"testing"

	"yosompc/internal/wire"
)

// TestManifestGoldenWire pins the byte-exact manifest layout
// (docs/WIRE.md): u8 version | str8 committee | str8 phase | u32 n |
// u32 quorum.
func TestManifestGoldenWire(t *testing.T) {
	m := Manifest{Committee: "offB1", Phase: "offline", N: 20, Quorum: 15}
	golden := []byte{
		0x02,                          // version
		0x05, 'o', 'f', 'f', 'B', '1', // committee
		0x07, 'o', 'f', 'f', 'l', 'i', 'n', 'e', // phase
		0x00, 0x00, 0x00, 0x14, // n
		0x00, 0x00, 0x00, 0x0f, // quorum
	}
	enc, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, golden) {
		t.Errorf("encoded manifest:\n got %x\nwant %x", enc, golden)
	}
	if len(enc) != m.EncodedSize() {
		t.Errorf("EncodedSize = %d, encoded %d bytes", m.EncodedSize(), len(enc))
	}
	var dec Manifest
	if err := dec.UnmarshalBinary(golden); err != nil {
		t.Fatal(err)
	}
	if dec != m {
		t.Errorf("decoded = %+v, want %+v", dec, m)
	}
	if got := m.Speaker(3); got != "offB1/3" {
		t.Errorf("Speaker(3) = %q, want %q", got, "offB1/3")
	}
}

func TestManifestDecodeRejectsMalformed(t *testing.T) {
	good, _ := Manifest{Committee: "offR", Phase: "offline", N: 8, Quorum: 5}.MarshalBinary()
	cases := map[string][]byte{
		"empty":         {},
		"wrong version": append([]byte{0x7f}, good[1:]...),
		"truncated":     good[:len(good)-1],
		"trailing":      append(append([]byte{}, good...), 0x00),
	}
	for name, data := range cases {
		var m Manifest
		if err := m.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		} else if name != "truncated" && !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: err = %v, not wire.ErrMalformed", name, err)
		}
	}
}

// FuzzManifestRoundTrip feeds arbitrary bytes through the Manifest decoder:
// it must never panic, and anything it accepts must re-encode to the exact
// same bytes (canonical encoding).
func FuzzManifestRoundTrip(f *testing.F) {
	seed, _ := Manifest{Committee: "offB2", Phase: "offline", N: 20, Quorum: 11}.MarshalBinary()
	f.Add(seed)
	empty, _ := Manifest{}.MarshalBinary()
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte{0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Manifest
		if err := m.UnmarshalBinary(data); err != nil {
			return
		}
		re, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encoding accepted manifest: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not byte-identical:\n in %x\nout %x", data, re)
		}
	})
}
