package transport

import (
	"encoding"
	"fmt"
	"io"

	"yosompc/internal/wire"
)

// TraceContext is the compact correlation record every board entry carries:
// which OS process posted it, which telemetry span was open at the poster,
// and the post/receive timestamps that let a trace merge align per-process
// clocks onto the board's shared timeline. Layout (big-endian,
// docs/WIRE.md):
//
//	str8 proc | u64 span | u64 post_us | u64 recv_us
//
// The context is versioned by the enclosing frame (entry or post request),
// so it carries no version byte of its own. Timestamps are Unix
// microseconds; PostUS is stamped by the poster's clock, RecvUS by the
// receiving board's clock (for the in-process board the two clocks are the
// same). A zero context is valid and means "unattributed".
type TraceContext struct {
	// Proc names the posting OS process ("" when unattributed). Two
	// protocol runs mirroring into one boardd are disambiguated by it.
	Proc string
	// Span is the poster's open telemetry span ID (0 when tracing is off).
	Span uint64
	// PostUS is the poster-clock Unix-microsecond send time (0 if unset).
	PostUS int64
	// RecvUS is the board-clock Unix-microsecond receive time (0 if
	// unset). The difference RecvUS−PostUS across many entries estimates
	// the poster's clock offset to the board.
	RecvUS int64
}

// EncodedSize returns the exact encoded length in bytes.
func (tc TraceContext) EncodedSize() int {
	return 1 + len(tc.Proc) + 8 + 8 + 8
}

// appendTo appends the context's encoding — the shared body of
// MarshalBinary and the enclosing entry/post-frame encoders.
func (tc TraceContext) appendTo(dst []byte) []byte {
	dst = wire.AppendString8(dst, tc.Proc)
	dst = wire.AppendUint64(dst, tc.Span)
	dst = wire.AppendUint64(dst, uint64(tc.PostUS))
	return wire.AppendUint64(dst, uint64(tc.RecvUS))
}

// consume decodes one context from the front of data and returns the
// remainder — the shared body of UnmarshalBinary and the enclosing
// decoders.
func (tc *TraceContext) consume(data []byte) ([]byte, error) {
	proc, rest, err := wire.String8(data)
	if err != nil {
		return nil, fmt.Errorf("%w: trace proc: %w", wire.ErrMalformed, err)
	}
	span, rest, err := wire.Uint64(rest)
	if err != nil {
		return nil, err
	}
	post, rest, err := wire.Uint64(rest)
	if err != nil {
		return nil, err
	}
	recv, rest, err := wire.Uint64(rest)
	if err != nil {
		return nil, err
	}
	*tc = TraceContext{Proc: proc, Span: span, PostUS: int64(post), RecvUS: int64(recv)}
	return rest, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (tc TraceContext) MarshalBinary() ([]byte, error) {
	return tc.appendTo(make([]byte, 0, tc.EncodedSize())), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The encoding must
// consume the whole buffer.
func (tc *TraceContext) UnmarshalBinary(data []byte) error {
	rest, err := tc.consume(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after trace context", wire.ErrMalformed, len(rest))
	}
	return nil
}

// ReadFrom implements io.ReaderFrom, reading exactly one context. A clean
// EOF before the first byte returns io.EOF; an EOF mid-field returns
// io.ErrUnexpectedEOF.
func (tc *TraceContext) ReadFrom(r io.Reader) (int64, error) {
	proc, n, err := wire.ReadString8(r)
	if err != nil {
		return int64(n), err
	}
	fail := func(err error) (int64, error) {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return int64(n), err
	}
	span, m, err := wire.ReadUint64(r)
	n += m
	if err != nil {
		return fail(err)
	}
	post, m, err := wire.ReadUint64(r)
	n += m
	if err != nil {
		return fail(err)
	}
	recv, m, err := wire.ReadUint64(r)
	n += m
	if err != nil {
		return fail(err)
	}
	*tc = TraceContext{Proc: proc, Span: span, PostUS: int64(post), RecvUS: int64(recv)}
	return int64(n), nil
}

var (
	_ encoding.BinaryMarshaler   = TraceContext{}
	_ encoding.BinaryUnmarshaler = (*TraceContext)(nil)
	_ io.ReaderFrom              = (*TraceContext)(nil)
)
