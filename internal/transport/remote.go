package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"yosompc/internal/comm"
	"yosompc/internal/telemetry"
	"yosompc/internal/wire"
)

// A networked bulletin-board service: a Board behind a TCP listener. A
// Server accepts connections speaking the binary protocol of docs/WIRE.md
// and appends accepted posts to its board through the same path as an
// in-process Post. Every message, in both directions, is one frame,
// u8 version | u32 body length | body, read by wire.ReadFrame. A request
// body starts with an opcode:
//
//	post: 0x01 | u32 claimed size | str8 from | str8 phase |
//	      str8 category | trace context | payload
//	  → status 0x00 | u32 seq, or status 0x01 | message
//	tail: 0x02 | u32 since
//	  → a stream of Entry frames, first the backlog from `since`, then
//	    live posts — every Seq once and in order — until either side
//	    closes
//	dump: 0x03 | u32 since
//	  → u32 count, then count Entry frames — a one-shot snapshot, then
//	    the connection stays usable for further requests
//
// The payload is the rest of the body: the message's real binary
// encoding. The server meters the *measured* payload length and rejects
// posts whose claimed size disagrees, so a poster cannot influence the
// byte accounting by lying. A frame the server can read but not decode
// is answered with an error, like any rejected post, and the connection
// stays usable; only a frame it cannot read (another version, over-long,
// cut short) ends the connection. The trace
// context travels with the post, but its RecvUS field is authoritative
// only after the server overwrites it with its own receive clock — the
// shared timeline trace merging aligns against. A Mirror forwards an
// in-process run's postings — bytes included — to a Server in the
// background, following the run's log as a tail follows the server's.

// Protocol opcodes.
const (
	opPost byte = 0x01
	opTail byte = 0x02
	opDump byte = 0x03
)

// Post response statuses.
const (
	statusOK  byte = 0x00
	statusErr byte = 0x01
)

// Server is a bulletin-board service instance: the embedded Board is the
// log (Len, Entries, Report, Observe and an in-process Post are the
// board's own), and the server adds only the networking around it.
type Server struct {
	*Board
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{} // closed by Close: a tail ending after it is no reap

	// Telemetry instruments, nil (no-op, zero cost) until Instrument is
	// called. Time is only read when the corresponding histogram is set.
	postCount *telemetry.Counter   // transport.posts
	postBytes *telemetry.Histogram // transport.post_bytes
	postNS    *telemetry.Histogram // transport.post_ns
	tailNS    *telemetry.Histogram // transport.tail_write_ns
	tailLag   *telemetry.Gauge     // transport.tail_lag_max
	reaps     *telemetry.Counter   // transport.conn_reaps
	rejects   *telemetry.Counter   // transport.post_rejects

	wg sync.WaitGroup
}

// Instrument registers the server's transport metrics on reg and starts
// recording:
//
//	transport.posts         counter    accepted post requests
//	transport.post_bytes    histogram  measured posting sizes
//	transport.post_ns       histogram  post handling latency
//	transport.post_rejects  counter    refused frames (size mismatch, malformed, unreadable)
//	transport.tail_write_ns histogram  tail delivery latency per flushed batch (writes + flush)
//	transport.tail_lag_max  gauge      largest batch one tail wake-up wrote
//	transport.conn_reaps    counter    dead tail connections reaped
//
// Call it before the server takes traffic; a nil registry leaves the
// server uninstrumented at zero cost.
func (s *Server) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.postCount = reg.Counter("transport.posts")
	s.postBytes = reg.Histogram("transport.post_bytes", telemetry.SizeBuckets)
	s.postNS = reg.Histogram("transport.post_ns", telemetry.DurationBuckets)
	s.tailNS = reg.Histogram("transport.tail_write_ns", telemetry.DurationBuckets)
	s.tailLag = reg.Gauge("transport.tail_lag_max")
	s.reaps = reg.Counter("transport.conn_reaps")
	s.rejects = reg.Counter("transport.post_rejects")
}

// newServer builds a server around a fresh board.
func newServer(ln net.Listener) *Server {
	return &Server{
		Board: NewBoard(nil),
		ln:    ln,
		conns: map[net.Conn]struct{}{},
		done:  make(chan struct{}),
	}
}

// Serve starts a server on the listener and returns immediately; Close
// shuts it down and waits for the connection handlers.
func Serve(ln net.Listener) *Server {
	s := newServer(ln)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				_ = conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.handle(conn)
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
		}
	}()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections, terminates tailers and waits for all
// handlers to exit.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	// Unblock handlers parked reading the next frame from idle posters, and
	// tail loops stuck writing to a stalled client.
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.conns = map[net.Conn]struct{}{}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		// A fresh buffer per frame: an accepted post's payload is a view of
		// it, and the board keeps it.
		body, err := wire.ReadFrame(br, nil)
		if err != nil {
			if err != io.EOF {
				// Past a frame it cannot read, the stream is out of step.
				s.rejects.Inc()
				writeAnswer(bw, 0, err, true)
			}
			return
		}
		var op byte
		if len(body) > 0 {
			op, body = body[0], body[1:]
		}
		var seq int
		switch op {
		case opPost:
			var e Entry
			if e, err = decodePost(body); err == nil {
				seq, err = s.post(e)
			}
		case opTail, opDump:
			var since uint32
			if since, err = decodeUint32(body); err != nil {
				break
			}
			if op == opTail {
				s.tail(conn, bw, int(since))
				return // tail owns the connection until shutdown
			}
			if !s.dump(bw, int(since)) {
				return
			}
			continue
		default:
			err = fmt.Errorf("unknown op %d", op)
		}
		if err != nil {
			s.rejects.Inc()
		}
		// A Mirror pipelines its post frames: while the next one is already
		// buffered, its answer joins this one in the same write.
		if !writeAnswer(bw, seq, err, br.Buffered() == 0) {
			return
		}
	}
}

// decodePost decodes a post request's body after its opcode. A claimed
// size that disagrees with the measured payload is a protocol violation,
// not a rounding error: the post is refused.
func decodePost(body []byte) (Entry, error) {
	claimed, rest, err := wire.Uint32(body)
	if err != nil {
		return Entry{}, err
	}
	var e Entry
	if err := e.decodeFields(rest); err != nil {
		return Entry{}, err
	}
	if int(claimed) != e.Size {
		return Entry{}, fmt.Errorf("claimed size %d disagrees with measured payload size %d", claimed, e.Size)
	}
	return e, nil
}

// decodeUint32 decodes a body that is one u32: a tail or dump request's
// since, after its opcode, and a dump's entry count.
func decodeUint32(body []byte) (uint32, error) {
	v, rest, err := wire.Uint32(body)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d trailing bytes after u32", wire.ErrMalformed, len(rest))
	}
	return v, err
}

// dump writes a one-shot snapshot response: the count frame, then the
// entry frames.
func (s *Server) dump(bw *bufio.Writer, since int) bool {
	entries := s.Entries(since)
	hdr := wire.AppendFrameHeader(make([]byte, 0, wire.FrameHeaderLen+4), 4)
	hdr = wire.AppendUint32(hdr, uint32(len(entries)))
	if _, err := bw.Write(hdr); err != nil {
		return false
	}
	for _, e := range entries {
		if _, err := e.WriteTo(bw); err != nil {
			return false
		}
	}
	return bw.Flush() == nil
}

// writeAnswer writes the answer to one post frame, seq when err is nil and
// err's message otherwise, and flushes it when flush is set.
func writeAnswer(bw *bufio.Writer, seq int, err error, flush bool) bool {
	if _, err := bw.Write(appendAnswer(nil, seq, err)); err != nil {
		return false
	}
	return !flush || bw.Flush() == nil
}

// appendAnswer appends a post answer frame: status ok and the entry's Seq
// when err is nil, status err and err's message otherwise.
func appendAnswer(dst []byte, seq int, err error) []byte {
	if err != nil {
		msg := err.Error()
		return append(append(wire.AppendFrameHeader(dst, 1+len(msg)), statusErr), msg...)
	}
	return wire.AppendUint32(append(wire.AppendFrameHeader(dst, 1+4), statusOK), uint32(seq))
}

// decodeAnswer decodes a post answer's body: the entry's Seq, or the
// server's rejection wrapped in errRejected.
func decodeAnswer(body []byte) (int, error) {
	if len(body) == 0 {
		return 0, fmt.Errorf("%w: empty post answer", wire.ErrMalformed)
	}
	switch body[0] {
	case statusOK:
		seq, err := decodeUint32(body[1:])
		return int(seq), err
	case statusErr:
		return 0, fmt.Errorf("%w: %s", errRejected, body[1:])
	default:
		return 0, fmt.Errorf("%w: post answer status %d", wire.ErrMalformed, body[0])
	}
}

// post appends an accepted post to the board and returns its Seq.
func (s *Server) post(e Entry) (int, error) {
	if e.From == "" {
		return 0, errors.New("missing poster")
	}
	var start time.Time
	if s.postNS != nil {
		start = time.Now()
	}
	seq := s.append(e, false)
	s.postCount.Inc()
	s.postBytes.Observe(float64(len(e.Payload)))
	if s.postNS != nil {
		s.postNS.Observe(float64(time.Since(start)))
	}
	return seq, nil
}

// tail streams the board's log to one tailer from sequence since: it
// follows the log, writes each batch back to back and flushes once per
// batch, until the tailer goes away or the server closes its connection.
// Every Seq goes out exactly once, in order, however far the tailer falls
// behind.
func (s *Server) tail(conn net.Conn, bw *bufio.Writer, since int) {
	// Watch for the connection failing. Without this, a tail loop with no
	// incoming posts would park forever, pinning the handler goroutine and
	// the connection. The tailer sends nothing after its initial request,
	// so reading until the connection fails is waiting for it to die — or
	// for Close, which closes every connection, to end it.
	gone := make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(gone)
		_, _ = io.Copy(io.Discard, conn)
	}()
	// However the loop ends, a tailer that went away is a reap; a server
	// Close closes done before it closes any connection, so it is not.
	defer func() {
		select {
		case <-s.done:
		default:
			s.reaps.Inc()
		}
	}()
	s.follow(max(since, 0), gone, func(entries []Entry) bool {
		var start time.Time
		if s.tailNS != nil {
			start = time.Now()
		}
		for i := range entries {
			if _, err := entries[i].WriteTo(bw); err != nil {
				return false
			}
		}
		if err := bw.Flush(); err != nil {
			return false
		}
		if s.tailNS != nil {
			s.tailNS.Observe(float64(time.Since(start)))
		}
		s.tailLag.Max(int64(len(entries)))
		return true
	})
}

// Client posts entries to a remote board.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// Dial connects to a board server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing board %s: %w", addr, err)
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}, nil
}

// Post publishes one entry carrying the message's binary encoding and
// returns its assigned sequence number. The claimed size the frame carries
// is len(payload); the server re-measures and rejects any disagreement.
// The trace context carries only the poster's send time; use PostCtx to
// attribute the post to a process and span.
func (c *Client) Post(from string, phase comm.Phase, cat comm.Category, payload []byte) (int, error) {
	return c.PostCtx(from, phase, cat, payload, TraceContext{PostUS: time.Now().UnixMicro()})
}

// PostCtx is Post with an explicit trace context — the poster's process
// name, open span and send time travel with the entry; the server
// overwrites RecvUS with its own receive clock.
func (c *Client) PostCtx(from string, phase comm.Phase, cat comm.Category, payload []byte, tc TraceContext) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The frame goes out as its header and then the caller's payload slice
	// as is: the payload is never copied into a frame buffer.
	e := Entry{From: from, Phase: phase, Category: cat, Trace: tc, Payload: payload}
	hdr := appendPostHeader(make([]byte, 0, wire.FrameHeaderLen+1+4+e.fieldsLen()), &e)
	// c.mu stays held across the write, flush and read: it pairs each post
	// frame with its own answer, so replies cannot interleave across posters.
	if _, err := c.bw.Write(hdr); err != nil {
		return 0, fmt.Errorf("transport: posting: %w", err)
	}
	if _, err := c.bw.Write(payload); err != nil {
		return 0, fmt.Errorf("transport: posting: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return 0, fmt.Errorf("transport: posting: %w", err)
	}
	return readAnswer(c.br)
}

// appendPostHeader appends e's post frame up to its payload — everything
// but the payload, which the writer sends after it as is. It is the one
// post-frame encoder, shared by Client.PostCtx and a Mirror's writer.
func appendPostHeader(dst []byte, e *Entry) []byte {
	dst = wire.AppendFrameHeader(dst, 1+4+e.fieldsLen()+len(e.Payload))
	dst = append(dst, opPost)
	dst = wire.AppendUint32(dst, uint32(len(e.Payload))) // claimed size
	return e.appendFields(dst)
}

// errRejected wraps a post the server answered with an error. The answer
// stream stays in step after it, unlike after any other error readAnswer
// returns.
var errRejected = errors.New("transport: board rejected post")

// readAnswer reads the server's answer to one post frame.
func readAnswer(br *bufio.Reader) (int, error) {
	body, err := wire.ReadFrame(br, nil)
	if err != nil {
		return 0, fmt.Errorf("transport: reading post answer: %w", err)
	}
	return decodeAnswer(body)
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// request checks since, dials addr and sends a tail or dump request from
// it. A negative since starts at 0; one the request's u32 cannot carry is
// refused before dialing, rather than wrapping to an earlier Seq.
func request(addr string, op byte, since int) (net.Conn, error) {
	if int64(since) > math.MaxUint32 {
		return nil, fmt.Errorf("transport: since %d exceeds the largest sequence number a request carries (%d)", since, uint32(math.MaxUint32))
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing board %s: %w", addr, err)
	}
	req := wire.AppendUint32(append(wire.AppendFrameHeader(nil, 1+4), op), uint32(max(since, 0)))
	if _, err := conn.Write(req); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: sending request: %w", err)
	}
	return conn, nil
}

// Fetch dials addr and returns a one-shot snapshot of the board's entries
// from sequence `since` — the dump counterpart of the streaming TailFunc,
// used by trace merging and monitor snapshots.
func Fetch(addr string, since int) ([]Entry, error) {
	conn, err := request(addr, opDump, since)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	body, err := wire.ReadFrame(br, nil)
	if err != nil {
		return nil, fmt.Errorf("transport: reading dump response: %w", err)
	}
	count, err := decodeUint32(body)
	if err != nil {
		return nil, fmt.Errorf("transport: reading dump count: %w", err)
	}
	if count > wire.MaxLen {
		return nil, fmt.Errorf("%w: dump count %d exceeds limit", wire.ErrMalformed, count)
	}
	// The count is the peer's claim, not a fact: preallocate for at most a
	// modest dump and let append grow the slice as entries actually arrive,
	// so a 9-byte reply announcing 2^30 entries is a short read, not an
	// out-of-memory abort.
	entries := make([]Entry, 0, min(count, 1<<12))
	for i := 0; i < int(count); i++ {
		// Each entry keeps its frame: its payload is a view of it.
		body, err := wire.ReadFrame(br, nil)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		var e Entry
		if err == nil {
			err = e.decode(body)
		}
		if err != nil {
			return nil, fmt.Errorf("transport: reading dump entry %d/%d: %w", i, count, err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// TailFunc opens a streaming subscription from sequence `since` and calls
// fn with each entry, in Seq order, from one goroutine, until the
// connection or server closes. The entry is borrowed: its Payload is read
// into one buffer reused from entry to entry, so it is valid only during
// the call, and a reader that keeps it clones it (as Tail does). The
// returned stop function ends the stream, waits for a call in progress
// and reports how the stream ended: nil after a clean server close (or a
// voluntary stop), the terminal stream error after an abnormal one (a
// mid-frame disconnect surfaces as io.ErrUnexpectedEOF). Call stop
// whichever way the stream ends, never from fn; it may be called more
// than once.
func TailFunc(addr string, since int, fn func(*Entry)) (stop func() error, err error) {
	return TailFuncEnd(addr, since, fn, nil)
}

// TailFuncEnd is TailFunc for a reader that waits for the stream to end:
// end, when set, runs once on the reader goroutine after the last call to
// fn, however the stream ended; stop's answer is settled by then. Like
// fn, end must not call stop.
func TailFuncEnd(addr string, since int, fn func(*Entry), end func()) (stop func() error, err error) {
	conn, err := request(addr, opTail, since)
	if err != nil {
		return nil, err
	}
	stopped := make(chan struct{})
	readerDone := make(chan struct{})
	hangUp := sync.OnceFunc(func() {
		close(stopped)
		_ = conn.Close()
	})
	var termErr error // written once by the reader, read after readerDone
	stop = func() error {
		hangUp()
		<-readerDone
		return termErr
	}
	go func() {
		defer close(readerDone)
		if end != nil {
			defer end()
		}
		br := bufio.NewReader(conn)
		var e Entry
		var buf []byte
		for {
			body, err := wire.ReadFrame(br, buf)
			if err == nil {
				err = e.decode(body)
			}
			if err != nil {
				select {
				case <-stopped:
					// Voluntary stop: stop closed the connection under
					// the reader; not a stream failure.
				default:
					if err != io.EOF {
						// Clean server close is io.EOF at a frame
						// boundary; anything else is abnormal.
						termErr = err
					}
				}
				return
			}
			buf = body
			fn(&e)
		}
	}()
	return stop, nil
}

// Tail is TailFunc for a reader that keeps entries: it delivers each one,
// with a payload of its own, on the returned channel, which closes when
// the stream ends. The closer has TailFunc's stop contract, and also
// releases a reader blocked on a channel nobody drains.
func Tail(addr string, since int) (<-chan Entry, func() error, error) {
	out := make(chan Entry, 64) // lets the reader run a burst ahead of the consumer
	done := make(chan struct{})
	stopTail, err := TailFuncEnd(addr, since, func(e *Entry) {
		kept := *e
		kept.Payload = bytes.Clone(e.Payload)
		select {
		case out <- kept:
		case <-done:
			// The consumer stopped draining and called the closer: drop
			// the entry instead of blocking the reader forever.
		}
	}, func() { close(out) })
	if err != nil {
		return nil, nil, err
	}
	closeDone := sync.OnceFunc(func() { close(done) })
	return out, func() error {
		closeDone()
		return stopTail()
	}, nil
}

// Mirror forwards every posting of an in-process board — real encoded
// payload bytes included — to a remote server in the background. It
// follows the board's log as a server's tail does: a writer goroutine
// sends each batch the log grew by as post frames back to back, each a
// header plus the entry's own payload, and flushes once per batch; a
// reader goroutine takes the server's answers, which come in the order the
// frames went out. No posting waits for the server, and the server's Seq
// equals the board's when the mirror is attached before the board's first
// post. Board.Sync waits for the answers. The local board stays
// authoritative for the run: a posting the server did not accept —
// rejected, left unanswered when the connection was lost, or made after
// Close — is counted (the first rejection or loss is logged), never
// silently swallowed.
type Mirror struct {
	board  *Board
	conn   net.Conn
	hangUp func() error // closes conn, once

	// end is the Seq forwarding stops at: math.MaxInt64 while the mirror
	// runs, then the board's length when Close was called or the connection
	// was lost. It is set under the board's append lock, so a posting is
	// either before it (forwarded, or counted when the reader ends) or not
	// (counted as it is appended).
	end  atomic.Int64
	quit chan struct{} // closed when end is set

	mu       sync.Mutex
	answered int           // the server has answered every posting before this Seq
	ended    bool          // the answer stream is over
	progress chan struct{} // closed when answered or ended moves; allocated while a Sync waits

	wg sync.WaitGroup // the writer and the reader

	errs     atomic.Int64
	logOnce  sync.Once
	errCount atomic.Pointer[telemetry.Counter] // transport.mirror_post_errors
}

// AttachMirror dials addr and starts forwarding the board's postings from
// its current length on. Attach before the board's first post for the
// server to hold the whole log. The mirror's only board observer counts
// postings made after forwarding stopped; the network I/O runs on the
// mirror's own two goroutines, outside the board's lock. Call Instrument
// before the board takes traffic to expose the error counter, Board.Sync to
// wait until the server has answered everything posted so far, and Close
// when the board has taken its last posting.
func AttachMirror(board *Board, addr string) (*Mirror, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing board %s: %w", addr, err)
	}
	m := &Mirror{board: board, conn: conn, hangUp: sync.OnceValue(conn.Close), quit: make(chan struct{})}
	m.end.Store(math.MaxInt64)
	board.mu.Lock()
	start := len(board.entries)
	m.answered = start
	board.mirrors = append(board.mirrors, m)
	board.observers = append(board.observers, m.countLate)
	board.mu.Unlock()
	m.wg.Add(2)
	go m.forward(start)
	go m.readAnswers(start)
	return m, nil
}

// forward is the writer: it follows the board's log from Seq next until it
// reaches end or a write fails. A failed write hangs up, which ends the
// reader too.
func (m *Mirror) forward(next int) {
	defer m.wg.Done()
	bw := bufio.NewWriter(m.conn)
	var hdr []byte
	m.board.follow(next, m.quit, func(entries []Entry) bool {
		end := m.end.Load()
		if n := end - int64(entries[0].Seq); n < int64(len(entries)) {
			entries = entries[:max(n, 0)]
		}
		var err error
		for i := 0; i < len(entries) && err == nil; i++ {
			// The local trace stamp travels along, so the server's entry
			// keeps the poster's process, span and send time; the server
			// replaces RecvUS with its own clock.
			e := &entries[i]
			hdr = appendPostHeader(hdr[:0], e)
			if _, err = bw.Write(hdr); err == nil {
				_, err = bw.Write(e.Payload)
			}
		}
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			_ = m.hangUp()
			return false
		}
		return len(entries) > 0 && int64(entries[len(entries)-1].Seq)+1 < end
	})
}

// readAnswers is the reader. The server answers post frames in the order
// they were sent, so each answer is for the next Seq; the reader publishes
// how far the answers reach whenever it has read all that arrived. When
// the stream ends — Close hung up after draining, or the connection was
// lost — it stops forwarding and counts every posting left unanswered.
func (m *Mirror) readAnswers(next int) {
	defer m.wg.Done()
	br := bufio.NewReader(m.conn)
	var err error
	for {
		if _, err = readAnswer(br); err != nil && !errors.Is(err, errRejected) {
			break
		}
		if err != nil {
			m.fail(1, err)
		}
		next++
		if br.Buffered() == 0 {
			m.publish(next, false)
		}
	}
	end := m.stop()
	_ = m.hangUp() // a writer blocked on a connection nobody reads gives up
	if lost := end - next; lost > 0 {
		m.fail(int64(lost), fmt.Errorf("connection lost with %d postings unanswered: %w", lost, err))
	}
	m.publish(next, true)
}

// countLate is the mirror's board observer. It forwards nothing: it counts
// a posting made once forwarding has stopped as a failure.
func (m *Mirror) countLate(e Entry) {
	if int64(e.Seq) >= m.end.Load() {
		m.fail(1, nil)
	}
}

// stop ends forwarding at the board's current length, once, and returns
// the Seq forwarding ends at.
func (m *Mirror) stop() int {
	m.board.mu.Lock()
	defer m.board.mu.Unlock()
	if m.end.Load() == math.MaxInt64 {
		m.end.Store(int64(len(m.board.entries)))
		close(m.quit)
	}
	return int(m.end.Load())
}

// publish records how far the server's answers reach and whether the
// stream is over, and wakes the waiters.
func (m *Mirror) publish(answered int, ended bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.answered, m.ended = answered, ended
	if m.progress != nil {
		close(m.progress)
		m.progress = nil
	}
}

// wait returns once the server has answered every posting before Seq n, or
// the answer stream is over.
func (m *Mirror) wait(n int) {
	for {
		m.mu.Lock()
		if m.answered >= n || m.ended {
			m.mu.Unlock()
			return
		}
		if m.progress == nil {
			m.progress = make(chan struct{})
		}
		progress := m.progress
		m.mu.Unlock()
		<-progress
	}
}

// fail counts n postings the server did not accept; err, when set, says
// why, and the first such cause is logged.
func (m *Mirror) fail(n int64, err error) {
	m.errs.Add(n)
	m.errCount.Load().Add(n)
	if err != nil {
		m.logOnce.Do(func() {
			log.Printf("transport: mirror post to remote board failed (further failures counted, not logged): %v", err)
		})
	}
}

// Instrument registers the mirror's transport.mirror_post_errors counter
// on reg; a nil registry is a no-op.
func (m *Mirror) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.errCount.Store(reg.Counter("transport.mirror_post_errors"))
}

// Errors returns how many postings the server did not accept. Once
// Board.Sync or Close has returned, it counts every posting made before
// that call.
func (m *Mirror) Errors() int64 { return m.errs.Load() }

// Close drains the mirror — it waits until the server has answered every
// posting made before the call, or the connection is lost — then stops
// forwarding, releases the connection and waits for the mirror's
// goroutines. Postings made after Close count as failures. Close may be
// called more than once.
func (m *Mirror) Close() error {
	m.wait(m.stop())
	err := m.hangUp()
	m.wg.Wait()
	return err
}
