// Package wire holds the shared primitives of the repo's binary message
// encodings: the format version byte, bounds-checked append/consume helpers
// for the length-prefixed field layouts, and their stream-reading twins
// for the one type a stream carries (transport.Entry, boardd's framing).
//
// The framed types (transport entries and requests, manifests, trace
// contexts, the Sim PKE envelope) build their codecs from these helpers so
// the byte counts the board meters are the byte counts that actually cross
// a wire. docs/WIRE.md documents the per-type layouts.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the wire-format version byte carried by framed messages
// (transport entries and requests). Codecs with fixed layouts (proofs,
// ciphertexts) omit it; the enclosing frame versions them. Version 2
// added the trace-context field to board entries and post frames.
const Version byte = 2

// MaxLen bounds any single length-prefixed field (1 GiB); a longer prefix
// is malformed. It bounds what a field may hold, not what a reader
// allocates: Bytes32 decodes from a buffer that already holds the bytes,
// and ReadBytes32 allocates as they arrive (see readChunk), so a forged
// prefix costs its sender the bytes it announced.
const MaxLen = 1 << 30

// readChunk caps ReadBytes32's up-front allocation (1 MiB). A field up to
// this size is read into one exact allocation; a longer one starts here
// and doubles as its bytes actually arrive, so a reader never holds more
// than max(readChunk, twice the bytes received) for one field — or, when
// it reads into a reused buffer (ReadBytes32Into), than that or the
// buffer's own capacity.
const readChunk = 1 << 20

// ErrMalformed is the root error of every decode failure in this package.
var ErrMalformed = errors.New("wire: malformed message")

// All integers are big-endian, matching the rest of the repo's encodings.

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

// AppendBytes32 appends a u32 length prefix followed by b.
func AppendBytes32(dst, b []byte) []byte {
	dst = AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// Bytes32 consumes a u32-length-prefixed byte field and returns a copy of
// the payload plus the remainder.
func Bytes32(data []byte) ([]byte, []byte, error) {
	n, rest, err := Uint32(data)
	if err != nil {
		return nil, nil, err
	}
	if n > MaxLen {
		return nil, nil, fmt.Errorf("%w: field length %d exceeds limit", ErrMalformed, n)
	}
	if len(rest) < int(n) {
		return nil, nil, fmt.Errorf("%w: field needs %d bytes, have %d", ErrMalformed, n, len(rest))
	}
	out := make([]byte, n)
	copy(out, rest[:n])
	return out, rest[n:], nil
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

// ReadUint32 reads a big-endian uint32 from a stream.
func ReadUint32(r io.Reader) (uint32, int, error) {
	var buf [4]byte
	n, err := io.ReadFull(r, buf[:])
	if err != nil {
		return 0, n, err
	}
	return binary.BigEndian.Uint32(buf[:]), n, nil
}

// ReadUint64 reads a big-endian uint64 from a stream.
func ReadUint64(r io.Reader) (uint64, int, error) {
	var buf [8]byte
	n, err := io.ReadFull(r, buf[:])
	if err != nil {
		return 0, n, err
	}
	return binary.BigEndian.Uint64(buf[:]), n, nil
}

// ReadString8 reads a u8-length-prefixed string from a stream.
func ReadString8(r io.Reader) (string, int, error) {
	var l [1]byte
	n, err := io.ReadFull(r, l[:])
	if err != nil {
		return "", n, err
	}
	buf := make([]byte, int(l[0]))
	m, err := io.ReadFull(r, buf)
	n += m
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", n, err
	}
	return string(buf), n, nil
}

// ReadBytes32 reads a u32-length-prefixed byte field from a stream into a
// fresh buffer. The announced length is the peer's claim: the buffer
// starts at min(length, readChunk) and grows only as bytes arrive.
func ReadBytes32(r io.Reader) ([]byte, int, error) {
	return ReadBytes32Into(r, nil)
}

// ReadBytes32Into is ReadBytes32 reading into buf's storage, for a reader
// that reuses one buffer from field to field: it returns buf[:length] when
// buf can hold the field, and otherwise a larger buffer that starts with
// what buf held of it. The read stops at the announced length however
// large buf is. The length is still the peer's claim: past cap(buf) the
// buffer grows only as bytes arrive — to max(2·cap(buf), readChunk), then
// by doubling — so a forged length that the stream never delivers costs
// nothing beyond buf, or readChunk when buf has no capacity. A nil buf reads
// exactly as ReadBytes32 does.
func ReadBytes32Into(r io.Reader, buf []byte) ([]byte, int, error) {
	v, n, err := ReadUint32(r)
	if err != nil {
		return nil, n, err
	}
	if v > MaxLen {
		return nil, n, fmt.Errorf("%w: field length %d exceeds limit", ErrMalformed, v)
	}
	want := int(v)
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
		n += m
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, n, err
		}
	}
	return buf, n, nil
}
