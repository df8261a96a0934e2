package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"yosompc/internal/comm"
	"yosompc/internal/telemetry"
	"yosompc/internal/wire"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln)
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestRemotePostAndLen(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seq, err := c.Post("off1/3", comm.PhaseOffline, comm.CatBeaver, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 {
		t.Errorf("first seq = %d", seq)
	}
	seq, err = c.Post("off1/4", comm.PhaseOffline, comm.CatBeaver, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || s.Len() != 2 {
		t.Errorf("seq=%d len=%d", seq, s.Len())
	}
	rep := s.Report()
	if rep.Total != 1024 || rep.ByCat[comm.PhaseOffline][comm.CatBeaver] != 1024 {
		t.Errorf("report = %+v", rep)
	}
	// The stored entry carries the payload bytes, and Size is measured.
	es := s.Entries(0)
	if len(es) != 2 || es[0].Size != 512 || len(es[0].Payload) != 512 {
		t.Errorf("entries = %+v", es)
	}
}

// rawPostFrame builds a post frame with an arbitrary claimed size — the
// client API always claims len(payload), so lying requires a raw frame.
func rawPostFrame(from, phase, cat string, claimed int, payload []byte) []byte {
	body := wire.AppendUint32([]byte{opPost}, uint32(claimed))
	body = wire.AppendString8(body, from)
	body = wire.AppendString8(body, phase)
	body = wire.AppendString8(body, cat)
	tc, _ := TraceContext{}.MarshalBinary()
	body = append(append(body, tc...), payload...)
	return append(wire.AppendFrameHeader(nil, len(body)), body...)
}

// readRawResponse reads one answer frame and returns its status and the
// rest of its body: the Seq, or the rejection message.
func readRawResponse(t *testing.T, conn net.Conn) (status byte, rest []byte) {
	t.Helper()
	body, err := wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	if len(body) == 0 {
		t.Fatal("empty response body")
	}
	return body[0], body[1:]
}

func TestRemotePostValidation(t *testing.T) {
	s := startServer(t)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Post("", comm.PhaseSetup, comm.CatCRS, []byte{1}); err == nil {
		t.Error("accepted empty poster")
	}
	// The connection must survive rejected posts.
	if _, err := c.Post("a", comm.PhaseSetup, comm.CatCRS, []byte{1}); err != nil {
		t.Errorf("post after rejection failed: %v", err)
	}
	if got := reg.Snapshot().Counters["transport.post_rejects"]; got != 1 {
		t.Errorf("transport.post_rejects = %d, want 1", got)
	}
}

// The server meters the measured payload length and rejects any post whose
// claimed size disagrees — a poster cannot skew the byte accounting.
func TestRemotePostClaimedSizeMismatchRejected(t *testing.T) {
	s := startServer(t)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(rawPostFrame("liar", "offline", "beaver", 1<<20, []byte{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	status, _ := readRawResponse(t, conn)
	if status != statusErr {
		t.Fatalf("lying post got status %d, want rejection", status)
	}
	if s.Len() != 0 || s.Report().Total != 0 {
		t.Errorf("rejected post was stored: len=%d total=%d", s.Len(), s.Report().Total)
	}
	if got := reg.Snapshot().Counters["transport.post_rejects"]; got != 1 {
		t.Errorf("transport.post_rejects = %d, want 1", got)
	}
	// An honest frame on the same connection still goes through.
	if _, err := conn.Write(rawPostFrame("honest", "offline", "beaver", 3, []byte{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	status, seqBuf := readRawResponse(t, conn)
	if status != statusOK || seqBuf[3] != 0 {
		t.Errorf("honest post after rejection: status=%d seq bytes=%v", status, seqBuf)
	}
	if s.Report().Total != 3 {
		t.Errorf("measured total = %d, want 3", s.Report().Total)
	}
}

// A frame is delimited by its length, so a post whose body does not
// decode is refused like any other rejected post: answered with an error
// and counted, and the connection stays usable for the next post.
func TestRemotePostUndecodableBodyIsRejected(t *testing.T) {
	s := startServer(t)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A whole frame whose poster field announces more bytes than the body
	// holds.
	body := wire.AppendUint32([]byte{opPost}, 0)
	body = append(body, 200, 'r')
	if _, err := conn.Write(append(wire.AppendFrameHeader(nil, len(body)), body...)); err != nil {
		t.Fatal(err)
	}
	if status, msg := readRawResponse(t, conn); status != statusErr {
		t.Fatalf("undecodable post got status %d (%q), want rejection", status, msg)
	}
	if got := reg.Snapshot().Counters["transport.post_rejects"]; got != 1 {
		t.Errorf("transport.post_rejects = %d, want 1", got)
	}
	if _, err := conn.Write(rawPostFrame("honest", "offline", "beaver", 3, []byte{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if status, seq := readRawResponse(t, conn); status != statusOK || !bytes.Equal(seq, []byte{0, 0, 0, 0}) {
		t.Errorf("honest post after the rejection: status=%d seq bytes=%v", status, seq)
	}
	if s.Len() != 1 {
		t.Errorf("server holds %d entries, want the honest one", s.Len())
	}
}

// A frame of another wire version is refused at its first byte, both
// ways. The server answers a version 2 post, tail or dump request with an
// error and closes the connection without waiting for the rest of the
// frame; Client.Post, Fetch and TailFunc refuse a version 2 answer.
func TestOtherVersionRefused(t *testing.T) {
	s := startServer(t)
	for name, op := range map[string]byte{"post": opPost, "tail": opTail, "dump": opDump} {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// Only the head of a version 2 frame: a server that waited for the
		// rest would never answer.
		if _, err := conn.Write([]byte{2, op}); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if status, msg := readRawResponse(t, conn); status != statusErr || !strings.Contains(string(msg), "version 2") {
			t.Errorf("%s: version 2 request got status %d (%q), want a version rejection", name, status, msg)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("%s: after the rejection the connection read %v, want io.EOF", name, err)
		}
		conn.Close()
	}

	// A peer that answers every request with a version 2 frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer func() {
		ln.Close()
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = wire.ReadFrame(conn, nil)
			_, _ = conn.Write([]byte{2, statusOK, 0, 0, 0, 0})
			conn.Close()
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Post("r", comm.PhaseOnline, comm.CatMu, []byte{1}); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("Client.Post given a version 2 answer = %v, want wire.ErrMalformed", err)
	}
	if _, err := Fetch(ln.Addr().String(), 0); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("Fetch given a version 2 answer = %v, want wire.ErrMalformed", err)
	}
	ended := make(chan struct{})
	stop, err := TailFuncEnd(ln.Addr().String(), 0, func(e *Entry) {
		t.Errorf("TailFunc delivered entry %d from a version 2 frame", e.Seq)
	}, func() { close(ended) })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the tail did not end on a version 2 frame")
	}
	if err := stop(); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("TailFunc given a version 2 frame: stop = %v, want wire.ErrMalformed", err)
	}
}

// A post frame's payload length is the poster's claim: a 47-byte frame
// announcing 1 GiB and then hanging up is a short read that costs the
// handler about a megabyte, not the gigabyte it announced.
func TestHostilePostLengthIsAShortRead(t *testing.T) {
	s := startServer(t)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	frame := rawPostFrame("r", "online", "mu", 1<<30, nil)
	binary.BigEndian.PutUint32(frame[1:], 1<<30) // body length
	if len(frame) != 47 {
		t.Fatalf("frame is %d bytes, want 47", len(frame))
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The handler rejects the truncated frame, then returns and drops the
	// connection.
	for deadline := time.Now().Add(5 * time.Second); ; {
		s.mu.Lock()
		open := len(s.conns)
		s.mu.Unlock()
		if reg.Snapshot().Counters["transport.post_rejects"] == 1 && open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("handler never rejected the truncated frame and returned")
		}
		time.Sleep(time.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Errorf("a 47-byte frame announcing 1 GiB made the server allocate %d MiB", grew>>20)
	}
	if s.Len() != 0 {
		t.Errorf("truncated post was stored: len=%d", s.Len())
	}
}

// A post costs the client its frame header, never a copy of the payload:
// the payload slice goes to the connection as is.
func TestClientPostAllocations(t *testing.T) {
	payload := make([]byte, 64<<10)
	frameLen := len(rawPostFrame("r", string(comm.PhaseOnline), string(comm.CatMu), len(payload), payload))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A loopback server that allocates nothing per post, so the bytes
	// measured below are the client's: it reads each frame into one reused
	// buffer and answers with one fixed ok response.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		frame := make([]byte, frameLen)
		ok := appendAnswer(nil, 0, nil)
		for {
			if _, err := io.ReadFull(conn, frame); err != nil {
				return
			}
			if _, err := conn.Write(ok); err != nil {
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	post := func() {
		if _, err := c.PostCtx("r", comm.PhaseOnline, comm.CatMu, payload, TraceContext{}); err != nil {
			t.Fatal(err)
		}
	}
	post() // warm the connection up outside the measurement
	if per := allocBytesPerRun(100, post); per >= 4<<10 {
		t.Errorf("posting %d payload bytes allocated %d bytes per post", len(payload), per)
	}
}

func TestRemoteTailBacklogAndLive(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Post("r", comm.PhaseOnline, comm.CatMu, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	entries, stop, err := Tail(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// Backlog: seq 1 and 2.
	for want := 1; want <= 2; want++ {
		e := recvEntry(t, entries)
		if e.Seq != want {
			t.Errorf("backlog seq = %d, want %d", e.Seq, want)
		}
	}
	// Live: a new post arrives on the stream, bytes intact.
	live := []byte("live-payload")
	if _, err := c.Post("r", comm.PhaseOnline, comm.CatMu, live); err != nil {
		t.Fatal(err)
	}
	e := recvEntry(t, entries)
	if e.Seq != 3 || !bytes.Equal(e.Payload, live) {
		t.Errorf("live entry = %+v", e)
	}
	// One append path: an in-process Post on the served board reaches the
	// live tailer exactly like a post that came in over TCP.
	local := []byte("local-payload")
	s.SetProc("boardd")
	if seq := s.Post("r", comm.PhaseOnline, comm.CatMu, local); seq != 4 {
		t.Errorf("in-process post seq = %d, want 4", seq)
	}
	e = recvEntry(t, entries)
	if e.Seq != 4 || !bytes.Equal(e.Payload, local) || e.Trace.Proc != "boardd" || e.Trace.PostUS != e.Trace.RecvUS {
		t.Errorf("in-process entry as tailed = %+v", e)
	}
	if rep := s.Report(); rep.Postings != 5 || rep.Total != 3*8+int64(len(live)+len(local)) {
		t.Errorf("served board report = %+v", rep)
	}
}

func recvEntry(t *testing.T, ch <-chan Entry) Entry {
	t.Helper()
	select {
	case e, ok := <-ch:
		if !ok {
			t.Fatal("tail channel closed early")
		}
		return e
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for entry")
		return Entry{}
	}
}

func TestRemoteConcurrentPosters(t *testing.T) {
	s := startServer(t)
	const posters, each = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < each; i++ {
				if _, err := c.Post("w", comm.PhaseOffline, comm.CatLambda, []byte{0}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != posters*each {
		t.Errorf("len = %d, want %d", s.Len(), posters*each)
	}
	if s.Report().Postings != posters*each {
		t.Errorf("postings = %d", s.Report().Postings)
	}
}

func TestRemoteServerCloseTerminatesTail(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	entries, stop, err := Tail(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for range entries {
		}
		close(done)
	}()
	// Wait for the tailer to park on the board: closing the server while the
	// tail request is still in flight is an abnormal close (TCP reset), not
	// the clean shutdown under test.
	waitParked(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tail did not terminate on server close")
	}
	// A clean server close at a frame boundary is not an error.
	if err := stop(); err != nil {
		t.Errorf("stop after clean server close = %v, want nil", err)
	}
	// Close is idempotent, and shutting down under an open tail is not a
	// reap: transport.conn_reaps counts only tailers that went away.
	_ = s.Close() // the listener is already closed; only a panic fails here
	if got := reg.Snapshot().Counters["transport.conn_reaps"]; got != 0 {
		t.Errorf("transport.conn_reaps = %d after server Close, want 0", got)
	}
}

// An abnormal stream end — the server dying mid-frame — must surface
// through the closer instead of being dropped.
func TestTailSurfacesTerminalError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Consume the tail request, then send a truncated Entry frame and
		// hang up mid-frame.
		_, _ = wire.ReadFrame(conn, nil)
		e := Entry{Seq: 0, From: "r", Phase: "online", Category: "mu", Size: 4, Payload: []byte{1, 2, 3, 4}}
		enc, _ := e.MarshalBinary()
		_, _ = conn.Write(enc[:len(enc)-2])
		conn.Close()
	}()
	entries, stop, err := Tail(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for range entries {
	}
	if err := stop(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("stop after mid-frame disconnect = %v, want io.ErrUnexpectedEOF", err)
	}
	// stop is idempotent and keeps reporting the same terminal error.
	if err := stop(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("second stop = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestAttachMirror(t *testing.T) {
	s := startServer(t)
	meter := &comm.Meter{}
	board := NewBoard(meter)
	mirror, err := AttachMirror(board, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	board.Post("off1/1", comm.PhaseOffline, comm.CatBeaver, make([]byte, 100))
	board.Post("off1/2", comm.PhaseOffline, comm.CatBeaver, make([]byte, 200))
	// Local board is authoritative.
	if board.Len() != 2 || meter.Report().Total != 300 {
		t.Errorf("local: len=%d total=%d", board.Len(), meter.Report().Total)
	}
	// A post does not wait for the server; Sync waits for its answers. Then
	// the remote report — measured from the shipped bytes — matches the
	// in-process meter.
	board.Sync()
	if s.Len() != 2 || s.Report().Total != 300 {
		t.Errorf("remote: len=%d total=%d", s.Len(), s.Report().Total)
	}
	if mirror.Errors() != 0 {
		t.Errorf("mirror errors = %d", mirror.Errors())
	}
}

// A dying remote must not stall the run: boardd here dies mid-stream, after
// accepting the first few posts and with more in flight. Sync and Close
// still return, and every posting the server never accepted — in flight,
// posted after the connection was lost, or posted after Close — is counted
// on the mirror and in telemetry, never swallowed silently.
func TestMirrorCountsForwardingFailures(t *testing.T) {
	s := startServer(t)
	const size, accepted, posted, late = 1 << 10, 5, 40, 2
	frame := len(rawPostFrame("r", string(comm.PhaseOnline), string(comm.CatMu), size, make([]byte, size)))
	answer := len(appendAnswer(nil, 0, nil))
	addr, proxyDone := dyingProxy(t, s.Addr(), int64(accepted*frame), int64(accepted*answer))
	board := NewBoard(nil)
	mirror, err := AttachMirror(board, addr)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	mirror.Instrument(reg)
	for i := 0; i < posted; i++ {
		board.Post("r", comm.PhaseOnline, comm.CatMu, make([]byte, size))
	}
	within(t, "Sync", board.Sync)
	if got := s.Len(); got != accepted {
		t.Fatalf("server holds %d postings, want the %d it accepted", got, accepted)
	}
	within(t, "Close", func() { _ = mirror.Close() })
	for i := 0; i < late; i++ {
		board.Post("r", comm.PhaseOnline, comm.CatMu, make([]byte, size))
	}
	within(t, "second Close", func() { _ = mirror.Close() })
	want := int64(posted + late - accepted)
	if got := mirror.Errors(); got != want {
		t.Errorf("mirror.Errors() = %d, want %d", got, want)
	}
	if got := reg.Snapshot().Counters["transport.mirror_post_errors"]; got != want {
		t.Errorf("transport.mirror_post_errors = %d, want %d", got, want)
	}
	// The local board kept every posting regardless.
	if board.Len() != posted+late {
		t.Errorf("local board len = %d, want %d", board.Len(), posted+late)
	}
	<-proxyDone
}

// A start sequence travels as a u32. One beyond it used to wrap — since
// 2^32 tailed from Seq 0 — so Tail, TailFunc and Fetch refuse it before
// dialing, and accept every value the field can carry (a negative since
// starts at 0).
func TestSinceBeyondWireRange(t *testing.T) {
	s := startServer(t)
	s.Post("r", comm.PhaseOnline, comm.CatMu, []byte{1})
	open := map[string]func(since int) error{
		"Tail": func(since int) error {
			_, stop, err := Tail(s.Addr(), since)
			if err == nil {
				err = stop()
			}
			return err
		},
		"TailFunc": func(since int) error {
			stop, err := TailFunc(s.Addr(), since, func(*Entry) {})
			if err == nil {
				err = stop()
			}
			return err
		},
		"Fetch": func(since int) error {
			_, err := Fetch(s.Addr(), since)
			return err
		},
	}
	for _, tc := range []struct {
		since  int
		refuse bool
	}{
		{-1, false},
		{0, false},
		{math.MaxUint32, false},
		{math.MaxUint32 + 1, true},
		{1<<32 + 5, true},
		{math.MaxInt64, true},
	} {
		for name, open := range open {
			err := open(tc.since)
			refused := err != nil && strings.Contains(err.Error(), "exceeds the largest sequence number")
			if tc.refuse && !refused || !tc.refuse && err != nil {
				t.Errorf("%s(since %d) = %v, want refused %v", name, tc.since, err, tc.refuse)
			}
		}
	}
	// Within the range, since means what it says.
	if got, err := Fetch(s.Addr(), -1); err != nil || len(got) != 1 {
		t.Errorf("Fetch(since -1) = %d entries, %v; want the whole board", len(got), err)
	}
	if got, err := Fetch(s.Addr(), math.MaxUint32); err != nil || len(got) != 0 {
		t.Errorf("Fetch(since MaxUint32) = %d entries, %v; want none", len(got), err)
	}
}

// One Client serves many posters: its lock pairs each post frame with its
// own answer, so the Seq each poster gets back names the entry holding
// that poster's payload.
func TestClientSharedByPosters(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const posters, each = 8, 50
	seqs := make([][]int, posters)
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := c.Post(fmt.Sprintf("w%d", p), comm.PhaseOnline, comm.CatMu, []byte{byte(p), byte(i)})
				if err != nil {
					t.Error(err)
					return
				}
				seqs[p] = append(seqs[p], seq)
			}
		}()
	}
	wg.Wait()
	entries := s.Entries(0)
	if len(entries) != posters*each {
		t.Fatalf("server holds %d entries, want %d", len(entries), posters*each)
	}
	for p, got := range seqs {
		for i, seq := range got {
			e := entries[seq]
			if e.From != fmt.Sprintf("w%d", p) || !bytes.Equal(e.Payload, []byte{byte(p), byte(i)}) {
				t.Fatalf("poster %d's post %d got seq %d, which holds %q's payload %v", p, i, seq, e.From, e.Payload)
			}
		}
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
	if _, _, err := Tail("127.0.0.1:1", 0); err == nil {
		t.Error("tail to closed port succeeded")
	}
}
