package transport

import (
	"bytes"
	"encoding"
	"fmt"
	"io"

	"yosompc/internal/comm"
	"yosompc/internal/wire"
)

// Entry is the one board record — what a Board stores, what observers see
// and what travels on the wire — carrying the real encoded payload bytes.
// It travels as one frame (big-endian, docs/WIRE.md):
//
//	u8 version | u32 body length | u32 seq | str8 from | str8 phase |
//	str8 category | trace context | payload
//
// The payload is the rest of the body. Size is derived — always
// len(Payload) — and is therefore measured, not claimed; it is kept as a
// field so auditors and the CLI read one number.
type Entry struct {
	// Seq is the global sequence number, assigned by the board.
	Seq int
	// From identifies the posting role (free-form, e.g. "off1/3").
	From string
	// Phase and Category attribute the bytes for reporting.
	Phase    comm.Phase
	Category comm.Category
	// Trace is the cross-process correlation record: posting process,
	// open span, and the post/receive timestamps (see TraceContext).
	Trace TraceContext
	// Size is the measured payload length in bytes, len(Payload).
	Size int
	// Payload is the message's binary encoding — the only form in which the
	// board holds a posted value. Readers take sub-slice views of it, so
	// consumers must treat it as immutable.
	Payload []byte
}

// EncodedSize returns the exact encoded length in bytes.
func (e Entry) EncodedSize() int {
	return wire.FrameHeaderLen + 4 + e.fieldsLen() + len(e.Payload)
}

// fieldsLen is the encoded length of the fields an entry frame and a post
// frame share (appendFields).
func (e *Entry) fieldsLen() int {
	return 1 + len(e.From) + 1 + len(e.Phase) + 1 + len(e.Category) + e.Trace.EncodedSize()
}

// appendFields appends the fields an entry frame and a post frame share,
// after their own leading fields and before the payload: str8 from |
// str8 phase | str8 category | trace context.
func (e *Entry) appendFields(dst []byte) []byte {
	dst = wire.AppendString8(dst, e.From)
	dst = wire.AppendString8(dst, string(e.Phase))
	dst = wire.AppendString8(dst, string(e.Category))
	return e.Trace.appendTo(dst)
}

// decodeFields decodes appendFields' fields from the front of data and
// takes the rest as the payload: a view of data, not a copy.
func (e *Entry) decodeFields(data []byte) error {
	from, rest, err := wire.String8(data)
	if err != nil {
		return err
	}
	phase, rest, err := wire.String8(rest)
	if err != nil {
		return err
	}
	cat, rest, err := wire.String8(rest)
	if err != nil {
		return err
	}
	var tc TraceContext
	if rest, err = tc.consume(rest); err != nil {
		return err
	}
	*e = Entry{From: from, Phase: comm.Phase(phase), Category: comm.Category(cat), Trace: tc, Size: len(rest), Payload: rest}
	return nil
}

// appendHeader appends the frame up to the payload — the shared body of
// MarshalBinary and WriteTo, which differ only in whether the payload
// bytes follow in the same buffer.
func (e Entry) appendHeader(dst []byte) []byte {
	dst = wire.AppendFrameHeader(dst, e.EncodedSize()-wire.FrameHeaderLen)
	dst = wire.AppendUint32(dst, uint32(e.Seq))
	return e.appendFields(dst)
}

// decode decodes an entry from a frame's body (wire.ReadFrame). The
// payload is a view of body, so a reader that reuses body's buffer lends
// the entry out rather than keeping it.
func (e *Entry) decode(body []byte) error {
	seq, rest, err := wire.Uint32(body)
	if err != nil {
		return err
	}
	if err := e.decodeFields(rest); err != nil {
		return err
	}
	e.Seq = int(seq)
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (e Entry) MarshalBinary() ([]byte, error) {
	out := e.appendHeader(make([]byte, 0, e.EncodedSize()))
	return append(out, e.Payload...), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The encoding must
// be exactly one frame. The frame goes through the stream reader like any
// other, so the entry's payload is a view of a fresh copy, not of data.
func (e *Entry) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	body, err := wire.ReadFrame(r, nil)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: truncated entry: %w", wire.ErrMalformed, err)
	}
	if err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after entry", wire.ErrMalformed, r.Len())
	}
	return e.decode(body)
}

// WriteTo implements io.WriterTo. It writes the same bytes as
// MarshalBinary in two calls, the header and then Payload itself, so a
// posting of any size costs one header-sized allocation and no copy here.
func (e Entry) WriteTo(w io.Writer) (int64, error) {
	hdr := e.appendHeader(make([]byte, 0, e.EncodedSize()-len(e.Payload)))
	n, err := w.Write(hdr)
	if err != nil {
		return int64(n), err
	}
	m, err := w.Write(e.Payload)
	return int64(n + m), err
}

var (
	_ encoding.BinaryMarshaler   = Entry{}
	_ encoding.BinaryUnmarshaler = (*Entry)(nil)
	_ io.WriterTo                = Entry{}
)
