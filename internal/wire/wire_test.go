package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// TestGoldenLayout pins the byte-level layout of every field helper: a
// change here changes every codec in the repo and must bump Version.
func TestGoldenLayout(t *testing.T) {
	buf := AppendUint32(nil, 0x01020304)
	buf = AppendUint64(buf, 0x0102030405060708)
	buf = AppendString8(buf, "ab")
	buf = AppendBytes32(buf, []byte{0xff})
	golden := []byte{
		0x01, 0x02, 0x03, 0x04, // uint32, big-endian
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // uint64, big-endian
		0x02, 'a', 'b', // str8: u8 length | bytes
		0x00, 0x00, 0x00, 0x01, 0xff, // bytes32: u32 length | bytes
	}
	if !bytes.Equal(buf, golden) {
		t.Fatalf("encoded = %x, want %x", buf, golden)
	}

	v, rest, err := Uint32(buf)
	if err != nil || v != 0x01020304 {
		t.Fatalf("Uint32 = %#x, %v", v, err)
	}
	v64, rest, err := Uint64(rest)
	if err != nil || v64 != 0x0102030405060708 {
		t.Fatalf("Uint64 = %#x, %v", v64, err)
	}
	s, rest, err := String8(rest)
	if err != nil || s != "ab" {
		t.Fatalf("String8 = %q, %v", s, err)
	}
	b, rest, err := Bytes32(rest)
	if err != nil || !bytes.Equal(b, []byte{0xff}) || len(rest) != 0 {
		t.Fatalf("Bytes32 = %x, rest %x, %v", b, rest, err)
	}
}

func TestBytes32Copies(t *testing.T) {
	enc := AppendBytes32(nil, []byte{1, 2, 3})
	got, _, err := Bytes32(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc[4] = 9 // mutate the backing array after decode
	if got[0] != 1 {
		t.Error("Bytes32 aliases the input buffer instead of copying")
	}
}

func TestDecodeMalformed(t *testing.T) {
	if _, _, err := Uint32([]byte{1, 2, 3}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short uint32: %v", err)
	}
	if _, _, err := Uint64([]byte{1, 2, 3, 4, 5, 6, 7}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short uint64: %v", err)
	}
	if _, _, err := String8([]byte{}); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty string field: %v", err)
	}
	if _, _, err := String8([]byte{5, 'a'}); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated string: %v", err)
	}
	if _, _, err := Bytes32([]byte{0, 0, 0, 9, 1}); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated bytes32: %v", err)
	}
	// A forged length prefix beyond MaxLen must be rejected before any
	// allocation, not attempted.
	huge := AppendUint32(nil, MaxLen+1)
	if _, _, err := Bytes32(huge); !errors.Is(err, ErrMalformed) {
		t.Errorf("oversized bytes32 length: %v", err)
	}
	if _, _, err := ReadBytes32(bytes.NewReader(huge)); !errors.Is(err, ErrMalformed) {
		t.Errorf("oversized streamed bytes32 length: %v", err)
	}
}

func TestAppendString8PanicsOnLongString(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AppendString8 accepted a 256-byte string")
		}
	}()
	AppendString8(nil, strings.Repeat("x", 256))
}

// TestStreamEOFSemantics checks the stream readers' contract: EOF at a
// field boundary is io.EOF only for the first byte of a read; running dry
// mid-field is io.ErrUnexpectedEOF.
func TestStreamEOFSemantics(t *testing.T) {
	if _, _, err := ReadUint32(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty uint32 stream: %v, want io.EOF", err)
	}
	if _, _, err := ReadUint32(bytes.NewReader([]byte{1, 2})); err != io.ErrUnexpectedEOF {
		t.Errorf("partial uint32 stream: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, err := ReadUint64(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty uint64 stream: %v, want io.EOF", err)
	}
	if _, _, err := ReadUint64(bytes.NewReader([]byte{1, 2, 3})); err != io.ErrUnexpectedEOF {
		t.Errorf("partial uint64 stream: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, err := ReadString8(bytes.NewReader([]byte{3, 'a'})); err != io.ErrUnexpectedEOF {
		t.Errorf("partial string stream: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, err := ReadBytes32(bytes.NewReader([]byte{0, 0, 0, 2, 7})); err != io.ErrUnexpectedEOF {
		t.Errorf("partial bytes32 stream: %v, want io.ErrUnexpectedEOF", err)
	}
}

// A length prefix is the peer's claim: a stream announcing MaxLen bytes
// and delivering ten is a short read that allocates about readChunk, not
// the 1 GiB it announced.
func TestReadBytes32AllocatesAsBytesArrive(t *testing.T) {
	stream := append(AppendUint32(nil, MaxLen), make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, n, err := ReadBytes32(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Errorf("short field: %v, want io.ErrUnexpectedEOF", err)
	}
	if n != len(stream) {
		t.Errorf("read %d bytes, stream holds %d", n, len(stream))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2*readChunk {
		t.Errorf("a 14-byte stream announcing %d bytes allocated %d bytes", MaxLen, grew)
	}

	// Past readChunk the buffer grows, and what arrives comes back intact
	// in a buffer of exactly the announced length.
	want := make([]byte, 3*readChunk+5)
	for i := range want {
		want[i] = byte(i * 7)
	}
	got, n, err := ReadBytes32(bytes.NewReader(AppendBytes32(nil, want)))
	if err != nil || n != 4+len(want) || !bytes.Equal(got, want) || cap(got) != len(want) {
		t.Errorf("grown field: n=%d len=%d cap=%d err=%v", n, len(got), cap(got), err)
	}
}

// A reader that reuses one buffer keeps the forged-length bound: once the
// buffer has grown to about readChunk, a stream announcing MaxLen and
// delivering ten bytes allocates no more than max(readChunk, cap(buf)) —
// here nothing, as the ten bytes fit.
func TestReadBytes32IntoForgedLengthAfterGrowth(t *testing.T) {
	buf, _, err := ReadBytes32Into(bytes.NewReader(AppendBytes32(nil, make([]byte, readChunk+1))), nil)
	if err != nil || len(buf) != readChunk+1 {
		t.Fatalf("growing the buffer: len=%d err=%v", len(buf), err)
	}
	stream := append(AppendUint32(nil, MaxLen), make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, n, err := ReadBytes32Into(bytes.NewReader(stream), buf)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF || n != len(stream) {
		t.Errorf("short field: n=%d err=%v, want %d and io.ErrUnexpectedEOF", n, err, len(stream))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(max(readChunk, cap(buf))) {
		t.Errorf("a 14-byte stream announcing %d bytes into a %d-byte buffer allocated %d bytes", MaxLen, cap(buf), grew)
	}
}

// Fields of decreasing size read into one buffer come back byte-exact: a
// read stops at the announced length even when the buffer is larger, so
// it never runs on into the next field.
func TestReadBytes32IntoStopsAtLength(t *testing.T) {
	var stream []byte
	var fields [][]byte
	for i, size := range []int{readChunk + 1, 64 << 10, 1, 0} {
		f := bytes.Repeat([]byte{byte(i + 1)}, size)
		fields = append(fields, f)
		stream = AppendBytes32(stream, f)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range fields {
		got, _, err := ReadBytes32Into(r, buf)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("field %d: len=%d, want %d, err=%v", i, len(got), len(want), err)
		}
		if i > 0 && &got[:1][0] != &buf[:1][0] {
			t.Errorf("field %d: the %d-byte buffer was not reused", i, cap(buf))
		}
		buf = got
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes left unread", r.Len())
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := AppendUint32(nil, 42)
	enc = AppendString8(enc, "phase")
	enc = AppendBytes32(enc, []byte("payload"))
	buf.Write(enc)

	v, n1, err := ReadUint32(&buf)
	if err != nil || v != 42 {
		t.Fatalf("ReadUint32 = %d, %v", v, err)
	}
	s, n2, err := ReadString8(&buf)
	if err != nil || s != "phase" {
		t.Fatalf("ReadString8 = %q, %v", s, err)
	}
	b, n3, err := ReadBytes32(&buf)
	if err != nil || string(b) != "payload" {
		t.Fatalf("ReadBytes32 = %q, %v", b, err)
	}
	if n1+n2+n3 != len(enc) {
		t.Errorf("byte counts sum to %d, encoded %d", n1+n2+n3, len(enc))
	}
}
