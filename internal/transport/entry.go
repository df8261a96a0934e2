package transport

import (
	"encoding"
	"fmt"
	"io"

	"yosompc/internal/comm"
	"yosompc/internal/wire"
)

// Entry is the one board record — what a Board stores, what observers see
// and what travels on the wire — carrying the real encoded payload bytes.
// Layout (big-endian, docs/WIRE.md):
//
//	u8 version | u32 seq | str8 from | str8 phase | str8 category |
//	trace context | u32 payload len | payload
//
// Size is derived — always len(Payload) — and is therefore measured, not
// claimed; it is kept as a field so auditors and the CLI read one number.
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
	return 1 + 4 + 1 + len(e.From) + 1 + len(e.Phase) + 1 + len(e.Category) +
		e.Trace.EncodedSize() + 4 + len(e.Payload)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (e Entry) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, e.EncodedSize())
	out = append(out, wire.Version)
	out = wire.AppendUint32(out, uint32(e.Seq))
	out = wire.AppendString8(out, e.From)
	out = wire.AppendString8(out, string(e.Phase))
	out = wire.AppendString8(out, string(e.Category))
	out = e.Trace.appendTo(out)
	return wire.AppendBytes32(out, e.Payload), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The encoding must
// consume the whole buffer.
func (e *Entry) UnmarshalBinary(data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("%w: empty entry", wire.ErrMalformed)
	}
	if data[0] != wire.Version {
		return fmt.Errorf("%w: entry version %d, want %d", wire.ErrMalformed, data[0], wire.Version)
	}
	seq, rest, err := wire.Uint32(data[1:])
	if err != nil {
		return err
	}
	from, rest, err := wire.String8(rest)
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
	rest, err = tc.consume(rest)
	if err != nil {
		return err
	}
	payload, rest, err := wire.Bytes32(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after entry", wire.ErrMalformed, len(rest))
	}
	*e = Entry{Seq: int(seq), From: from, Phase: comm.Phase(phase), Category: comm.Category(cat), Trace: tc, Size: len(payload), Payload: payload}
	return nil
}

// WriteTo implements io.WriterTo.
func (e Entry) WriteTo(w io.Writer) (int64, error) {
	buf, err := e.MarshalBinary()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadFrom implements io.ReaderFrom, reading exactly one entry frame. A
// clean EOF before the version byte returns io.EOF; an EOF mid-frame
// returns io.ErrUnexpectedEOF.
func (e *Entry) ReadFrom(r io.Reader) (int64, error) {
	var ver [1]byte
	n, err := io.ReadFull(r, ver[:])
	if err != nil {
		return int64(n), err
	}
	if ver[0] != wire.Version {
		return int64(n), fmt.Errorf("%w: entry version %d, want %d", wire.ErrMalformed, ver[0], wire.Version)
	}
	fail := func(m int, err error) (int64, error) {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return int64(n + m), err
	}
	seq, m, err := wire.ReadUint32(r)
	n += m
	if err != nil {
		return fail(0, err)
	}
	from, m, err := wire.ReadString8(r)
	n += m
	if err != nil {
		return fail(0, err)
	}
	phase, m, err := wire.ReadString8(r)
	n += m
	if err != nil {
		return fail(0, err)
	}
	cat, m, err := wire.ReadString8(r)
	n += m
	if err != nil {
		return fail(0, err)
	}
	var tc TraceContext
	m64, err := tc.ReadFrom(r)
	n += int(m64)
	if err != nil {
		return fail(0, err)
	}
	payload, m, err := wire.ReadBytes32(r)
	n += m
	if err != nil {
		return fail(0, err)
	}
	*e = Entry{Seq: int(seq), From: from, Phase: comm.Phase(phase), Category: comm.Category(cat), Trace: tc, Size: len(payload), Payload: payload}
	return int64(n), nil
}

var (
	_ encoding.BinaryMarshaler   = Entry{}
	_ encoding.BinaryUnmarshaler = (*Entry)(nil)
	_ io.WriterTo                = Entry{}
	_ io.ReaderFrom              = (*Entry)(nil)
)
