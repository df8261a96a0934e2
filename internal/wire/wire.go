// Package wire holds the shared primitives of the repo's binary message
// encodings: the format version byte, the frame every boardd message
// travels in, and bounds-checked append/consume helpers for the field
// layouts inside it.
//
// A frame is u8 version | u32 body length | body. ReadFrame is the one
// stream reader: it checks the version, bounds the length and reads the
// body, and every message is then decoded from that buffer. The framed
// types (transport entries and requests, manifests, trace contexts, the
// Sim PKE envelope) build their codecs from these helpers so the byte
// counts the board meters are the byte counts that actually cross a wire.
// docs/WIRE.md documents the per-type layouts.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the wire-format version byte at the head of every frame and
// of a manifest. Codecs with fixed layouts (proofs, ciphertexts) omit it;
// the enclosing frame versions them. Version 3 made every boardd frame
// carry its body length.
const Version byte = 3

// FrameHeaderLen is the length of a frame's header: the version byte and
// the u32 body length.
const FrameHeaderLen = 1 + 4

// MaxLen bounds a frame's body (1 GiB); a longer one is malformed. It
// bounds what a frame may hold, not what a reader allocates: ReadFrame
// allocates as the body arrives (see readChunk), so a forged length costs
// its sender the bytes it announced.
const MaxLen = 1 << 30

// readChunk caps ReadFrame's up-front allocation (1 MiB). A body up to
// this size is read into one exact allocation; a longer one starts here
// and doubles as its bytes actually arrive, so a reader never holds more
// than max(readChunk, twice the bytes received) for one frame — or, when
// it reads into a reused buffer, than that or the buffer's own capacity.
const readChunk = 1 << 20

// ErrMalformed is the root error of every decode failure in this package.
var ErrMalformed = errors.New("wire: malformed message")

// All integers are big-endian, matching the rest of the repo's encodings.

// AppendFrameHeader appends a frame's header for a body of bodyLen bytes;
// the body follows it.
func AppendFrameHeader(dst []byte, bodyLen int) []byte {
	return AppendUint32(append(dst, Version), uint32(bodyLen))
}

// ReadFrame reads one frame from r and returns its body, read into buf's
// storage: a reader that passes the previous body back in reuses one
// buffer from frame to frame, and a nil buf gives the body a buffer of its
// own. A frame of another version is refused at its first byte, before
// anything else is read. The body length is the peer's claim: the read
// stops at it however large buf is, and past cap(buf) the buffer grows
// only as bytes arrive — to max(2·cap(buf), readChunk), then by doubling
// — so a forged length that the stream never delivers costs nothing
// beyond buf, or readChunk when buf has no capacity. A clean EOF before
// the first byte returns io.EOF; an EOF mid-frame returns
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err
	}
	if hdr[0] != Version {
		return nil, fmt.Errorf("%w: frame version %d, want %d", ErrMalformed, hdr[0], Version)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, unexpected(err)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxLen {
		return nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrMalformed, n)
	}
	want := int(n)
	if buf == nil {
		buf = make([]byte, 0, min(want, readChunk))
	}
	buf = buf[:0]
	for len(buf) < want {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(want, max(2*cap(buf), readChunk)))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[len(buf):min(want, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, unexpected(err)
		}
	}
	return buf, nil
}

// unexpected maps an EOF past a frame's first byte to io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// AppendUint32 appends a big-endian uint32.
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

// Uint32 consumes a big-endian uint32 and returns the remainder.
func Uint32(data []byte) (uint32, []byte, error) {
	if len(data) < 4 {
		return 0, nil, fmt.Errorf("%w: truncated uint32", ErrMalformed)
	}
	return binary.BigEndian.Uint32(data), data[4:], nil
}

// AppendUint64 appends a big-endian uint64.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// Uint64 consumes a big-endian uint64 and returns the remainder.
func Uint64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated uint64", ErrMalformed)
	}
	return binary.BigEndian.Uint64(data), data[8:], nil
}

// AppendString8 appends a u8 length prefix followed by s. Strings longer
// than 255 bytes are a caller bug (role names, phases and categories are
// short by construction).
func AppendString8(dst []byte, s string) []byte {
	if len(s) > 255 {
		panic(fmt.Sprintf("wire: string field %q exceeds 255 bytes", s[:32]))
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

// String8 consumes a u8-length-prefixed string field.
func String8(data []byte) (string, []byte, error) {
	if len(data) < 1 {
		return "", nil, fmt.Errorf("%w: truncated string length", ErrMalformed)
	}
	n := int(data[0])
	if len(data) < 1+n {
		return "", nil, fmt.Errorf("%w: string needs %d bytes, have %d", ErrMalformed, n, len(data)-1)
	}
	return string(data[1 : 1+n]), data[1+n:], nil
}
