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

// MaxLen bounds any single length-prefixed field (1 GiB): a decoder reading
// attacker-supplied bytes must never allocate unbounded memory from a
// forged length prefix.
const MaxLen = 1 << 30

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

// ReadBytes32 reads a u32-length-prefixed byte field from a stream.
func ReadBytes32(r io.Reader) ([]byte, int, error) {
	v, n, err := ReadUint32(r)
	if err != nil {
		return nil, n, err
	}
	if v > MaxLen {
		return nil, n, fmt.Errorf("%w: field length %d exceeds limit", ErrMalformed, v)
	}
	buf := make([]byte, int(v))
	m, err := io.ReadFull(r, buf)
	n += m
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, n, err
	}
	return buf, n, nil
}
