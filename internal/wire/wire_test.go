package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// frame returns body framed: the frame header, then body.
func frame(body []byte) []byte {
	return append(AppendFrameHeader(nil, len(body)), body...)
}

// TestGoldenLayout pins the byte-level layout of the frame header and of
// every field helper: a change here changes every codec in the repo and
// must bump Version.
func TestGoldenLayout(t *testing.T) {
	buf := AppendFrameHeader(nil, 15)
	buf = AppendUint32(buf, 0x01020304)
	buf = AppendUint64(buf, 0x0102030405060708)
	buf = AppendString8(buf, "ab")
	golden := []byte{
		0x03,                   // frame: version
		0x00, 0x00, 0x00, 0x0f, // frame: u32 body length
		0x01, 0x02, 0x03, 0x04, // uint32, big-endian
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // uint64, big-endian
		0x02, 'a', 'b', // str8: u8 length | bytes
	}
	if !bytes.Equal(buf, golden) {
		t.Fatalf("encoded = %x, want %x", buf, golden)
	}

	body, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil || len(body) != 15 {
		t.Fatalf("ReadFrame = %x, %v", body, err)
	}
	v, rest, err := Uint32(body)
	if err != nil || v != 0x01020304 {
		t.Fatalf("Uint32 = %#x, %v", v, err)
	}
	v64, rest, err := Uint64(rest)
	if err != nil || v64 != 0x0102030405060708 {
		t.Fatalf("Uint64 = %#x, %v", v64, err)
	}
	s, rest, err := String8(rest)
	if err != nil || s != "ab" || len(rest) != 0 {
		t.Fatalf("String8 = %q, rest %x, %v", s, rest, err)
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
	// A forged length beyond MaxLen must be rejected before any
	// allocation, not attempted.
	if _, err := ReadFrame(bytes.NewReader(AppendFrameHeader(nil, MaxLen+1)), nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("oversized frame length: %v", err)
	}
	// A frame of another version is refused at its first byte: the reader
	// does not wait for a length or a body.
	r := bytes.NewReader([]byte{Version - 1, 0x01})
	if _, err := ReadFrame(r, nil); !errors.Is(err, ErrMalformed) || r.Len() != 1 {
		t.Errorf("version %d frame: %v, %d bytes left unread, want 1", Version-1, err, r.Len())
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

// TestStreamEOFSemantics checks the frame reader's contract: EOF before
// a frame's first byte is io.EOF; running dry anywhere after it is
// io.ErrUnexpectedEOF.
func TestStreamEOFSemantics(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
	good := frame([]byte{7, 8})
	for cut := 1; cut < len(good); cut++ {
		if _, err := ReadFrame(bytes.NewReader(good[:cut]), nil); err != io.ErrUnexpectedEOF {
			t.Errorf("frame cut after %d of %d bytes: %v, want io.ErrUnexpectedEOF", cut, len(good), err)
		}
	}
}

// A frame's length is the peer's claim: a stream announcing MaxLen bytes
// and delivering ten is a short read that allocates about readChunk, not
// the 1 GiB it announced.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	stream := append(AppendFrameHeader(nil, MaxLen), make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(stream), nil)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Errorf("short frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2*readChunk {
		t.Errorf("a 15-byte stream announcing %d bytes allocated %d bytes", MaxLen, grew)
	}

	// A body up to readChunk is one exact allocation; past it the buffer
	// grows, and what arrives comes back intact in a buffer of exactly the
	// announced length.
	for _, size := range []int{readChunk, 3*readChunk + 5} {
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i * 7)
		}
		got, err := ReadFrame(bytes.NewReader(frame(want)), nil)
		if err != nil || !bytes.Equal(got, want) || cap(got) != len(want) {
			t.Errorf("%d-byte body: len=%d cap=%d err=%v", size, len(got), cap(got), err)
		}
	}
	read := func(stream []byte) func() {
		return func() {
			if _, err := ReadFrame(bytes.NewReader(stream), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	empty, full := testing.AllocsPerRun(10, read(frame(nil))), testing.AllocsPerRun(10, read(frame(make([]byte, readChunk))))
	if full-empty != 1 {
		t.Errorf("a %d-byte body took %.0f allocations beyond an empty frame's, want 1", readChunk, full-empty)
	}
}

// A reader that reuses one buffer keeps the forged-length bound: once the
// buffer has grown to about readChunk, a stream announcing MaxLen and
// delivering ten bytes allocates no more than max(readChunk, cap(buf)) —
// here nothing beyond the header, as the ten bytes fit.
func TestReadFrameForgedLengthAfterGrowth(t *testing.T) {
	buf, err := ReadFrame(bytes.NewReader(frame(make([]byte, readChunk+1))), nil)
	if err != nil || len(buf) != readChunk+1 {
		t.Fatalf("growing the buffer: len=%d err=%v", len(buf), err)
	}
	stream := append(AppendFrameHeader(nil, MaxLen), make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ReadFrame(bytes.NewReader(stream), buf)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Errorf("short frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(max(readChunk, cap(buf))) {
		t.Errorf("a 15-byte stream announcing %d bytes into a %d-byte buffer allocated %d bytes", MaxLen, cap(buf), grew)
	}
}

// Frames of decreasing size read into one buffer come back byte-exact: a
// read stops at the announced length even when the buffer is larger, so
// it never runs on into the next frame.
func TestReadFrameStopsAtLength(t *testing.T) {
	var stream []byte
	var bodies [][]byte
	for i, size := range []int{readChunk + 1, 64 << 10, 1, 0} {
		b := bytes.Repeat([]byte{byte(i + 1)}, size)
		bodies = append(bodies, b)
		stream = append(stream, frame(b)...)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range bodies {
		got, err := ReadFrame(r, buf)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: len=%d, want %d, err=%v", i, len(got), len(want), err)
		}
		if i > 0 && &got[:1][0] != &buf[:1][0] {
			t.Errorf("frame %d: the %d-byte buffer was not reused", i, cap(buf))
		}
		buf = got
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes left unread", r.Len())
	}
}

// Frames written back to back come back one at a time, each body intact,
// and the stream ends with a clean io.EOF at the frame boundary.
func TestStreamRoundTrip(t *testing.T) {
	bodies := [][]byte{AppendUint32(nil, 42), AppendString8(nil, "phase"), nil, []byte("payload")}
	var stream []byte
	for _, b := range bodies {
		stream = append(stream, frame(b)...)
	}
	r := bytes.NewReader(stream)
	for i, want := range bodies {
		got, err := ReadFrame(r, nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %x, %v; want %x", i, got, err, want)
		}
	}
	if _, err := ReadFrame(r, nil); err != io.EOF {
		t.Errorf("read past the last frame = %v, want io.EOF", err)
	}
}
