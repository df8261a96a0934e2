// Package transport provides the broadcast bulletin board of the YOSO
// execution: an append-only sequence of postings, each attributed to a
// role, a phase and a category, with every byte metered.
//
// In YOSO, point-to-point messages to future (anonymous) roles are posted
// as encrypted envelopes on the same board — one-to-one costs the same as
// one-to-all (paper §3.3). The board therefore carries both broadcast
// values and addressed ciphertexts uniformly.
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"yosompc/internal/comm"
	"yosompc/internal/telemetry"
)

// Posting is one board entry.
type Posting struct {
	// Seq is the global sequence number, assigned by the board.
	Seq int
	// From identifies the posting role (free-form, e.g. "off1/3").
	From string
	// Phase and Category attribute the bytes for reporting.
	Phase    comm.Phase
	Category comm.Category
	// Trace is the correlation record stamped at Post time: the board's
	// process name and current span (SetProc / SetTraceSpan) plus the
	// posting timestamp. For the in-process board the post and receive
	// clocks coincide, so PostUS == RecvUS.
	Trace TraceContext
	// Size is the metered wire size in bytes — always len(Bytes).
	Size int
	// Bytes is the message's binary encoding — the only form in which the
	// board holds a posted value (docs/WIRE.md). Readers take sub-slice
	// views of it, so consumers must treat it as immutable.
	Bytes []byte
}

// Board is the append-only bulletin board. It is safe for concurrent use.
type Board struct {
	mu        sync.Mutex
	postings  []Posting
	meter     *comm.Meter
	observers []func(Posting)

	// Trace-context state stamped onto postings. proc is set once before
	// traffic; span follows the protocol's open phase/step span.
	proc string
	span atomic.Uint64

	// Telemetry instruments; nil (no-op, zero cost) until Instrument is
	// called.
	postCount *telemetry.Counter   // board.posts
	postBytes *telemetry.Histogram // board.post_bytes
}

// Instrument registers the in-process board's posting metrics on reg
// (board.posts counter, board.post_bytes size histogram). Call it before
// the board takes traffic; a nil registry is a no-op.
func (b *Board) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	b.postCount = reg.Counter("board.posts")
	b.postBytes = reg.Histogram("board.post_bytes", telemetry.SizeBuckets)
}

// NewBoard creates a board writing byte counts to meter. A nil meter
// creates a private one.
func NewBoard(meter *comm.Meter) *Board {
	if meter == nil {
		meter = &comm.Meter{}
	}
	return &Board{meter: meter}
}

// SetProc names the OS process this board belongs to; postings (and any
// mirror forwarding them) carry it in their trace context so a shared
// boardd can tell concurrent runs apart. Set it before the board takes
// traffic.
func (b *Board) SetProc(proc string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.proc = proc
}

// SetTraceSpan records the telemetry span ID subsequent postings are
// attributed to — the protocol driver stamps the open phase or committee
// step span here. Zero clears the attribution.
func (b *Board) SetTraceSpan(id uint64) { b.span.Store(id) }

// Post appends a posting carrying the message's binary encoding and meters
// the measured encoded length — the posting's Size is len(wire) by
// construction, never a caller claim. The caller must not modify wire
// after posting. Post returns the assigned sequence number.
func (b *Board) Post(from string, phase comm.Phase, cat comm.Category, wire []byte) int {
	size := len(wire)
	b.meter.Add(phase, cat, size)
	b.postCount.Inc()
	b.postBytes.Observe(float64(size))
	tc := TraceContext{Span: b.span.Load()}
	b.mu.Lock()
	// Stamped under the append lock so timestamps are monotone with Seq;
	// the in-process board's post and receive clocks coincide.
	now := time.Now().UnixMicro()
	tc.PostUS, tc.RecvUS = now, now
	tc.Proc = b.proc
	seq := len(b.postings)
	p := Posting{Seq: seq, From: from, Phase: phase, Category: cat, Trace: tc, Size: size, Bytes: wire}
	b.postings = append(b.postings, p)
	observers := b.observers
	b.mu.Unlock()
	for _, fn := range observers {
		fn(p)
	}
	return seq
}

// Observe registers a callback invoked synchronously after every posting —
// the hook mirrors and monitors attach to. Callbacks must be fast and must
// not post back to the board.
func (b *Board) Observe(fn func(Posting)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.observers = append(b.observers, fn)
}

// Len returns the number of postings.
func (b *Board) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.postings)
}

// Get returns posting seq.
func (b *Board) Get(seq int) (Posting, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if seq < 0 || seq >= len(b.postings) {
		return Posting{}, fmt.Errorf("transport: no posting %d (board has %d)", seq, len(b.postings))
	}
	return b.postings[seq], nil
}

// All returns a snapshot of all postings.
func (b *Board) All() []Posting {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Posting, len(b.postings))
	copy(out, b.postings)
	return out
}

// Meter returns the board's meter.
func (b *Board) Meter() *comm.Meter { return b.meter }

// Report returns the current communication report.
func (b *Board) Report() comm.Report { return b.meter.Report() }
