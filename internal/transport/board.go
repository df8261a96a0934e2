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
)

// Board is the append-only bulletin board: the one log of Entry records,
// whether posts arrive in process (Post) or over TCP (a Server is a board
// behind a listener). It is safe for concurrent use.
type Board struct {
	mu        sync.Mutex
	entries   []Entry
	meter     *comm.Meter
	observers []func(Entry)

	// Trace-context state stamped onto local posts. proc is set once before
	// traffic; span follows the protocol's open phase/step span.
	proc string
	span atomic.Uint64
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
// the measured encoded length — the entry's Size is len(wire) by
// construction, never a caller claim. The caller must not modify wire
// after posting. Post returns the assigned sequence number.
func (b *Board) Post(from string, phase comm.Phase, cat comm.Category, wire []byte) int {
	return b.append(Entry{From: from, Phase: phase, Category: cat, Payload: wire}, true)
}

// append is the one way onto the log, whichever door a post came through:
// it meters the measured payload length, stamps the trace context, assigns
// Seq and runs the observers. A local post is attributed to the board's
// own process and open span and has one clock (PostUS == RecvUS); a remote
// post keeps the poster's process, span and PostUS, and only its RecvUS —
// a poster's claim, never trusted — is overwritten with the board's clock,
// the shared timeline every poster's trace aligns against.
func (b *Board) append(e Entry, local bool) int {
	e.Size = len(e.Payload)
	b.meter.Add(e.Phase, e.Category, e.Size)
	b.mu.Lock()
	// Stamped under the append lock so receive times are monotone with Seq.
	now := time.Now().UnixMicro()
	if local {
		e.Trace = TraceContext{Proc: b.proc, Span: b.span.Load(), PostUS: now}
	}
	e.Trace.RecvUS = now
	e.Seq = len(b.entries)
	b.entries = append(b.entries, e)
	observers := b.observers
	b.mu.Unlock()
	for _, fn := range observers {
		fn(e)
	}
	return e.Seq
}

// Observe registers a callback invoked synchronously after every posting —
// the hook mirrors, monitors and a server's live tails attach to. Callbacks
// run outside the append lock, so under concurrent posters they may see
// neighbouring Seqs out of order; they must be fast and must not post back
// to the board.
func (b *Board) Observe(fn func(Entry)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.observers = append(b.observers, fn)
}

// Len returns the number of entries.
func (b *Board) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// Get returns entry seq.
func (b *Board) Get(seq int) (Entry, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if seq < 0 || seq >= len(b.entries) {
		return Entry{}, fmt.Errorf("transport: no posting %d (board has %d)", seq, len(b.entries))
	}
	return b.entries[seq], nil
}

// Entries returns a snapshot of the entries from sequence `since`.
func (b *Board) Entries(since int) []Entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	if since < 0 {
		since = 0
	}
	if since >= len(b.entries) {
		return nil
	}
	out := make([]Entry, len(b.entries)-since)
	copy(out, b.entries[since:])
	return out
}

// Meter returns the board's meter.
func (b *Board) Meter() *comm.Meter { return b.meter }

// Report returns the byte accounting of everything posted so far — every
// size in it was measured from real payload bytes.
func (b *Board) Report() comm.Report { return b.meter.Report() }
