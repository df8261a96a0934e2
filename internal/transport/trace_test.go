package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"yosompc/internal/wire"
)

// TestTraceContextGoldenWire pins the byte-exact context layout
// (docs/WIRE.md): str8 proc | u64 span | u64 post_us | u64 recv_us. The
// context carries no version byte — the enclosing entry or post frame
// versions it.
func TestTraceContextGoldenWire(t *testing.T) {
	tc := TraceContext{Proc: "p1", Span: 9, PostUS: 1000, RecvUS: 1500}
	golden := []byte{
		0x02, 'p', '1', // proc
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, // span
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0xe8, // post_us
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0xdc, // recv_us
	}
	enc, err := tc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, golden) {
		t.Errorf("encoded context:\n got %x\nwant %x", enc, golden)
	}
	if len(enc) != tc.EncodedSize() {
		t.Errorf("EncodedSize = %d, encoded %d bytes", tc.EncodedSize(), len(enc))
	}
	var dec TraceContext
	if err := dec.UnmarshalBinary(golden); err != nil {
		t.Fatal(err)
	}
	if dec != tc {
		t.Errorf("decoded = %+v, want %+v", dec, tc)
	}
}

func TestTraceContextStreamRoundTrip(t *testing.T) {
	in := []TraceContext{
		{}, // zero context is valid: unattributed
		{Proc: "client-a", Span: 42, PostUS: 1722000000000000, RecvUS: 1722000000000123},
		{Proc: "", Span: 0, PostUS: -5, RecvUS: 0}, // negative survives the u64 cast
	}
	var buf bytes.Buffer
	for _, tc := range in {
		buf.Write(tc.appendTo(nil))
	}
	for i, want := range in {
		var got TraceContext
		if _, err := got.ReadFrom(&buf); err != nil {
			t.Fatalf("context %d: %v", i, err)
		}
		if got != want {
			t.Errorf("context %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestTraceContextDecodeRejectsMalformed(t *testing.T) {
	good, _ := TraceContext{Proc: "x", Span: 1, PostUS: 2, RecvUS: 3}.MarshalBinary()
	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte{}, good...), 0x00),
	}
	for name, data := range cases {
		var tc TraceContext
		if err := tc.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		} else if name == "trailing" && !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: err = %v, not wire.ErrMalformed", name, err)
		}
	}
	// Mid-field EOF on a stream is io.ErrUnexpectedEOF, never a silent stop.
	var tc TraceContext
	if _, err := tc.ReadFrom(bytes.NewReader(good[:len(good)-1])); err != io.ErrUnexpectedEOF {
		t.Errorf("mid-field stream EOF = %v, want io.ErrUnexpectedEOF", err)
	}
}

// FuzzTraceContextRoundTrip feeds arbitrary bytes through the TraceContext
// decoder: it must never panic, and anything it accepts must re-encode to
// the exact same bytes (canonical encoding).
func FuzzTraceContextRoundTrip(f *testing.F) {
	seed, _ := TraceContext{Proc: "p", Span: 7, PostUS: 11, RecvUS: 13}.MarshalBinary()
	f.Add(seed)
	zero, _ := TraceContext{}.MarshalBinary()
	f.Add(zero)
	f.Add([]byte{})
	f.Add([]byte{0x01, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tc TraceContext
		if err := tc.UnmarshalBinary(data); err != nil {
			return
		}
		re, err := tc.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encoding accepted context: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not byte-identical:\n in %x\nout %x", data, re)
		}
	})
}
