package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
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
// in-process Post. Every frame starts with the wire version byte and an
// opcode:
//
//	post: ver | 0x01 | str8 from | str8 phase | str8 category |
//	      trace context | u32 claimed size | u32 payload len | payload
//	  → ver | status (0 ok: u32 seq; 1 err: u32 len | message)
//	tail: ver | 0x02 | u32 since
//	  → a stream of Entry frames, first the backlog from `since`, then
//	    live posts, until either side closes
//	dump: ver | 0x03 | u32 since
//	  → ver | u32 count | count × Entry — a one-shot snapshot, then the
//	    connection stays usable for further requests
//
// The payload is the message's real binary encoding; the server meters the
// *measured* payload length and rejects posts whose claimed size disagrees,
// so a poster cannot influence the byte accounting by lying. The trace
// context travels with the post, but its RecvUS field is authoritative
// only after the server overwrites it with its own receive clock — the
// shared timeline trace merging aligns against. A Mirror forwards an
// in-process run's postings — bytes included — to a Server as they happen.

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

// tailBuffer is the per-subscription live-delivery channel capacity.
const tailBuffer = 256

// subscriber is one live tail subscription. `gapped` is guarded by the
// Server mutex: fanOut sets it instead of blocking when the channel is
// full, and the tail loop re-syncs from the board's log before delivering
// anything further, so a slow tailer still observes every Seq exactly once.
type subscriber struct {
	ch     chan Entry
	conn   net.Conn
	gapped bool
}

// Server is a bulletin-board service instance: the embedded Board is the
// log (Len, Entries, Report, Observe and an in-process Post are the
// board's own), and the server adds only the networking around it.
type Server struct {
	*Board
	ln net.Listener

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	conns  map[net.Conn]struct{}
	closed bool

	// Telemetry instruments, nil (no-op, zero cost) until Instrument is
	// called. Time is only read when the corresponding histogram is set.
	postCount *telemetry.Counter   // transport.posts
	postBytes *telemetry.Histogram // transport.post_bytes
	postNS    *telemetry.Histogram // transport.post_ns
	tailNS    *telemetry.Histogram // transport.tail_write_ns
	resyncs   *telemetry.Counter   // transport.tail_resyncs
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
//	transport.post_rejects  counter    rejected posts (size mismatch, malformed)
//	transport.tail_write_ns histogram  per-entry tail delivery latency
//	transport.tail_resyncs  counter    gapped-subscription log re-syncs
//	transport.tail_lag_max  gauge      largest backlog a re-sync replayed
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
	s.resyncs = reg.Counter("transport.tail_resyncs")
	s.tailLag = reg.Gauge("transport.tail_lag_max")
	s.reaps = reg.Counter("transport.conn_reaps")
	s.rejects = reg.Counter("transport.post_rejects")
}

// newServer builds a server around a fresh board, with the live-tail
// fan-out hung off the board's observer hook so every append reaches the
// tailers, whichever door the post came through.
func newServer(ln net.Listener) *Server {
	s := &Server{
		Board: NewBoard(nil),
		ln:    ln,
		subs:  map[*subscriber]struct{}{},
		conns: map[net.Conn]struct{}{},
	}
	s.Observe(s.fanOut)
	return s
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
	s.closed = true
	for sub := range s.subs {
		close(sub.ch)
		// Unblock a tail loop stuck writing to a stalled client.
		_ = sub.conn.Close()
	}
	s.subs = map[*subscriber]struct{}{}
	// Unblock handlers parked reading the next frame from idle posters.
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
		var hdr [2]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		if hdr[0] != wire.Version {
			s.writeErr(bw, fmt.Sprintf("unsupported wire version %d", hdr[0]))
			return
		}
		switch hdr[1] {
		case opPost:
			req, err := readPostRequest(br)
			if err != nil {
				// The stream is not trustworthy past a malformed frame.
				s.rejects.Inc()
				s.writeErr(bw, err.Error())
				return
			}
			seq, err := s.post(req)
			if err != nil {
				s.rejects.Inc()
				if !s.writeErr(bw, err.Error()) {
					return
				}
				continue
			}
			if !s.writeOK(bw, seq) {
				return
			}
		case opTail:
			since, _, err := wire.ReadUint32(br)
			if err != nil {
				return
			}
			s.tail(conn, bw, int(since))
			return // tail owns the connection until shutdown
		case opDump:
			since, _, err := wire.ReadUint32(br)
			if err != nil {
				return
			}
			if !s.dump(bw, int(since)) {
				return
			}
		default:
			s.writeErr(bw, fmt.Sprintf("unknown op %d", hdr[1]))
			return
		}
	}
}

// postRequest is a decoded post frame.
type postRequest struct {
	from, phase, category string
	trace                 TraceContext
	claimed               int
	payload               []byte
}

func readPostRequest(br *bufio.Reader) (postRequest, error) {
	var req postRequest
	var err error
	if req.from, _, err = wire.ReadString8(br); err != nil {
		return req, fmt.Errorf("reading poster: %w", err)
	}
	if req.phase, _, err = wire.ReadString8(br); err != nil {
		return req, fmt.Errorf("reading phase: %w", err)
	}
	if req.category, _, err = wire.ReadString8(br); err != nil {
		return req, fmt.Errorf("reading category: %w", err)
	}
	if _, err = req.trace.ReadFrom(br); err != nil {
		return req, fmt.Errorf("reading trace context: %w", err)
	}
	claimed, _, err := wire.ReadUint32(br)
	if err != nil {
		return req, fmt.Errorf("reading claimed size: %w", err)
	}
	req.claimed = int(claimed)
	if req.payload, _, err = wire.ReadBytes32(br); err != nil {
		return req, fmt.Errorf("reading payload: %w", err)
	}
	return req, nil
}

// dump writes a one-shot snapshot response: ver | u32 count | Entry×count.
func (s *Server) dump(bw *bufio.Writer, since int) bool {
	entries := s.Entries(since)
	hdr := make([]byte, 0, 5)
	hdr = append(hdr, wire.Version)
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

func (s *Server) writeOK(bw *bufio.Writer, seq int) bool {
	buf := make([]byte, 0, 6)
	buf = append(buf, wire.Version, statusOK)
	buf = wire.AppendUint32(buf, uint32(seq))
	if _, err := bw.Write(buf); err != nil {
		return false
	}
	return bw.Flush() == nil
}

func (s *Server) writeErr(bw *bufio.Writer, msg string) bool {
	buf := make([]byte, 0, 6+len(msg))
	buf = append(buf, wire.Version, statusErr)
	buf = wire.AppendBytes32(buf, []byte(msg))
	if _, err := bw.Write(buf); err != nil {
		return false
	}
	return bw.Flush() == nil
}

func (s *Server) post(req postRequest) (int, error) {
	if req.from == "" {
		return 0, errors.New("missing poster")
	}
	// The measured encoded length is authoritative; a disagreeing claim is
	// a protocol violation, not a rounding error.
	if req.claimed != len(req.payload) {
		return 0, fmt.Errorf("claimed size %d disagrees with measured payload size %d",
			req.claimed, len(req.payload))
	}
	var start time.Time
	if s.postNS != nil {
		start = time.Now()
	}
	seq := s.append(Entry{
		From:     req.from,
		Phase:    comm.Phase(req.phase),
		Category: comm.Category(req.category),
		Trace:    req.trace,
		Payload:  req.payload,
	}, false)
	s.postCount.Inc()
	s.postBytes.Observe(float64(len(req.payload)))
	if s.postNS != nil {
		s.postNS.Observe(float64(time.Since(start)))
	}
	return seq, nil
}

// fanOut is the board observer that feeds the live tails.
func (s *Server) fanOut(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sub := range s.subs {
		select {
		case sub.ch <- e:
		default:
			// Slow tailer: never block the board, but never silently lose
			// the entry either — mark the subscription gapped so its tail
			// loop re-syncs from the board's log before delivering more.
			sub.gapped = true
		}
	}
}

func (s *Server) tail(conn net.Conn, bw *bufio.Writer, since int) {
	if since < 0 {
		since = 0
	}
	next := since // next sequence number owed to this tailer
	sub := &subscriber{ch: make(chan Entry, tailBuffer), conn: conn}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	// Snapshot the backlog only after subscribing: an entry appended in
	// between is then in the backlog, on the channel, or both — never in
	// neither — and send dedupes by Seq.
	backlog := s.Entries(since)
	defer func() {
		s.mu.Lock()
		delete(s.subs, sub)
		s.mu.Unlock()
	}()
	// Watch for the client going away. Without this, a tail loop with no
	// incoming posts would block on the subscription channel forever,
	// pinning the handler goroutine and the connection until server
	// shutdown. The tailer never sends after its initial request, so any
	// read completing means the connection is dead.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		buf := make([]byte, 1)
		for {
			if _, err := conn.Read(buf); err != nil {
				s.mu.Lock()
				if _, ok := s.subs[sub]; ok {
					delete(s.subs, sub)
					close(sub.ch)
					s.reaps.Inc()
				}
				s.mu.Unlock()
				return
			}
		}
	}()
	// send delivers e unless it was already delivered via a re-sync
	// (entries can arrive both on the live channel and in a re-sync
	// batch; Seq ordering dedupes them).
	send := func(e Entry) bool {
		if e.Seq < next {
			return true
		}
		var start time.Time
		if s.tailNS != nil {
			start = time.Now()
		}
		if _, err := e.WriteTo(bw); err != nil {
			return false
		}
		if err := bw.Flush(); err != nil {
			return false
		}
		if s.tailNS != nil {
			s.tailNS.Observe(float64(time.Since(start)))
		}
		next = e.Seq + 1
		return true
	}
	for _, e := range backlog {
		if !send(e) {
			return
		}
	}
	for e := range sub.ch {
		// If fanOut ever found the channel full it set gapped, and board
		// observers run outside the append lock so concurrent posts can
		// reach the channel out of order (e.Seq > next): either way re-read
		// the authoritative log from `next` so the client still sees every
		// entry exactly once, in order. An entry is in the log before its
		// fan-out, and a drop implies the channel was full, so there is
		// always a later receive to reach this check.
		s.mu.Lock()
		gapped := sub.gapped
		sub.gapped = false
		s.mu.Unlock()
		if gapped || e.Seq > next {
			resync := s.Entries(next)
			s.resyncs.Inc()
			s.tailLag.Max(int64(len(resync)))
			for _, re := range resync {
				if !send(re) {
					return
				}
			}
		}
		if !send(e) {
			return
		}
	}
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
	buf := make([]byte, 0, 2+1+len(from)+1+len(phase)+1+len(cat)+tc.EncodedSize()+8+len(payload))
	buf = append(buf, wire.Version, opPost)
	buf = wire.AppendString8(buf, from)
	buf = wire.AppendString8(buf, string(phase))
	buf = wire.AppendString8(buf, string(cat))
	buf = tc.appendTo(buf)
	buf = wire.AppendUint32(buf, uint32(len(payload)))
	buf = wire.AppendBytes32(buf, payload)
	//yosolint:blocking c.mu serializes the request/response pair on the single connection; blocking under it is the framing protocol
	if _, err := c.bw.Write(buf); err != nil {
		return 0, fmt.Errorf("transport: posting: %w", err)
	}
	//yosolint:blocking same request/response critical section as the write above
	if err := c.bw.Flush(); err != nil {
		return 0, fmt.Errorf("transport: posting: %w", err)
	}
	//yosolint:blocking the response read must stay inside the critical section or replies interleave across posters
	return c.readPostResponse()
}

func (c *Client) readPostResponse() (int, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, fmt.Errorf("transport: reading post response: %w", err)
	}
	if hdr[0] != wire.Version {
		return 0, fmt.Errorf("transport: post response version %d, want %d", hdr[0], wire.Version)
	}
	switch hdr[1] {
	case statusOK:
		seq, _, err := wire.ReadUint32(c.br)
		if err != nil {
			return 0, fmt.Errorf("transport: reading post response: %w", err)
		}
		return int(seq), nil
	case statusErr:
		msg, _, err := wire.ReadBytes32(c.br)
		if err != nil {
			return 0, fmt.Errorf("transport: reading post error: %w", err)
		}
		return 0, fmt.Errorf("transport: board rejected post: %s", msg)
	default:
		return 0, fmt.Errorf("transport: post response status %d", hdr[1])
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Fetch dials addr and returns a one-shot snapshot of the board's entries
// from sequence `since` — the dump counterpart of the streaming Tail, used
// by trace merging and monitor snapshots.
func Fetch(addr string, since int) ([]Entry, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing board %s: %w", addr, err)
	}
	defer conn.Close()
	if since < 0 {
		since = 0
	}
	req := make([]byte, 0, 6)
	req = append(req, wire.Version, opDump)
	req = wire.AppendUint32(req, uint32(since))
	if _, err := conn.Write(req); err != nil {
		return nil, fmt.Errorf("transport: requesting dump: %w", err)
	}
	br := bufio.NewReader(conn)
	var ver [1]byte
	if _, err := io.ReadFull(br, ver[:]); err != nil {
		return nil, fmt.Errorf("transport: reading dump response: %w", err)
	}
	if ver[0] != wire.Version {
		return nil, fmt.Errorf("transport: dump response version %d, want %d", ver[0], wire.Version)
	}
	count, _, err := wire.ReadUint32(br)
	if err != nil {
		return nil, fmt.Errorf("transport: reading dump count: %w", err)
	}
	if count > wire.MaxLen {
		return nil, fmt.Errorf("%w: dump count %d exceeds limit", wire.ErrMalformed, count)
	}
	entries := make([]Entry, 0, count)
	for i := 0; i < int(count); i++ {
		var e Entry
		if _, err := e.ReadFrom(br); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("transport: reading dump entry %d/%d: %w", i, count, err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Tail opens a streaming subscription from sequence `since`, delivering
// entries on the returned channel until the connection or server closes.
// The channel closes when the stream ends; the closer then reports how it
// ended: nil after a clean server close (or a voluntary stop), the
// terminal stream error after an abnormal one (a mid-frame disconnect
// surfaces as io.ErrUnexpectedEOF). The closer blocks until the stream
// goroutine has finished and may be called more than once.
func Tail(addr string, since int) (<-chan Entry, func() error, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: dialing board %s: %w", addr, err)
	}
	if since < 0 {
		since = 0
	}
	req := make([]byte, 0, 6)
	req = append(req, wire.Version, opTail)
	req = wire.AppendUint32(req, uint32(since))
	if _, err := conn.Write(req); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("transport: starting tail: %w", err)
	}
	out := make(chan Entry, 64)
	done := make(chan struct{})
	readerDone := make(chan struct{})
	var once sync.Once
	var termErr error // written once by the reader, read after readerDone
	stop := func() error {
		once.Do(func() {
			close(done)
			_ = conn.Close()
		})
		<-readerDone
		return termErr
	}
	go func() {
		defer close(readerDone)
		defer close(out)
		br := bufio.NewReader(conn)
		for {
			var e Entry
			if _, err := e.ReadFrom(br); err != nil {
				select {
				case <-done:
					// Voluntary stop: the consumer closed the connection
					// under the reader; not a stream failure.
				default:
					if err != io.EOF {
						// Clean server close is io.EOF at a frame
						// boundary; anything else is abnormal.
						termErr = err
					}
				}
				return
			}
			select {
			case out <- e:
			case <-done:
				// The consumer stopped draining and called the closer:
				// exit instead of blocking on the send forever (which
				// would leak this goroutine and pin the connection).
				return
			}
		}
	}()
	return out, stop, nil
}

// Mirror forwards every posting of an in-process board — real encoded
// payload bytes included — to a remote server as it happens. Forwarding is
// synchronous with the posting observer, so when the mirrored run
// finishes, the server's measured report is complete. The local board
// stays authoritative for the run itself: a remote failure never stalls
// the protocol, but it is counted (and logged once) rather than silently
// swallowed.
type Mirror struct {
	client *Client

	errs    atomic.Int64
	logOnce sync.Once

	errCount *telemetry.Counter // transport.mirror_post_errors
}

// AttachMirror dials addr and subscribes the mirror to the board. Call
// Instrument before the board takes traffic to expose the error counter.
func AttachMirror(board *Board, addr string) (*Mirror, error) {
	client, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	m := &Mirror{client: client}
	board.Observe(func(e Entry) {
		// Forward the local board's trace stamp so the remote entry keeps
		// the poster's process, span and send time; the server replaces
		// RecvUS with its own clock.
		if _, err := m.client.PostCtx(e.From, e.Phase, e.Category, e.Payload, e.Trace); err != nil {
			m.errs.Add(1)
			m.errCount.Inc()
			m.logOnce.Do(func() {
				log.Printf("transport: mirror post to remote board failed (further failures counted, not logged): %v", err)
			})
		}
	})
	return m, nil
}

// Instrument registers the mirror's transport.mirror_post_errors counter
// on reg; a nil registry is a no-op.
func (m *Mirror) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.errCount = reg.Counter("transport.mirror_post_errors")
}

// Errors returns how many forwarded posts have failed.
func (m *Mirror) Errors() int64 { return m.errs.Load() }

// Close releases the mirror's connection. Postings observed after Close
// count as forwarding failures.
func (m *Mirror) Close() error { return m.client.Close() }
