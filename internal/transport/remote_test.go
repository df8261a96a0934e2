package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
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
	buf := []byte{wire.Version, 0x01}
	buf = wire.AppendString8(buf, from)
	buf = wire.AppendString8(buf, phase)
	buf = wire.AppendString8(buf, cat)
	tc, _ := TraceContext{}.MarshalBinary()
	buf = append(buf, tc...)
	buf = wire.AppendUint32(buf, uint32(claimed))
	return wire.AppendBytes32(buf, payload)
}

func readRawResponse(t *testing.T, conn net.Conn) (status byte, rest []byte) {
	t.Helper()
	hdr := make([]byte, 2)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		t.Fatalf("reading response header: %v", err)
	}
	if hdr[0] != wire.Version {
		t.Fatalf("response version = %d", hdr[0])
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("reading response body: %v", err)
	}
	if hdr[1] == statusErr {
		// The u32 is the length of the rejection message; drain it so the
		// next frame's response starts at a frame boundary.
		n := int(buf[0])<<24 | int(buf[1])<<16 | int(buf[2])<<8 | int(buf[3])
		msg := make([]byte, n)
		if _, err := io.ReadFull(conn, msg); err != nil {
			t.Fatalf("reading rejection message: %v", err)
		}
		return hdr[1], msg
	}
	return hdr[1], buf
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
	// Wait for the subscription to register: closing the server while the
	// tail request is still in flight is an abnormal close (TCP reset), not
	// the clean shutdown under test.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.subs)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tail subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
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
		buf := make([]byte, 6)
		_, _ = io.ReadFull(conn, buf)
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
	// Remote mirror converges (posts are synchronous acks) and its report —
	// measured from the shipped bytes — matches the in-process meter.
	if s.Len() != 2 || s.Report().Total != 300 {
		t.Errorf("remote: len=%d total=%d", s.Len(), s.Report().Total)
	}
	if mirror.Errors() != 0 {
		t.Errorf("mirror errors = %d", mirror.Errors())
	}
}

// A dead remote must not stall the run: failures are counted on the mirror
// and in telemetry, never swallowed silently.
func TestMirrorCountsForwardingFailures(t *testing.T) {
	s := startServer(t)
	board := NewBoard(nil)
	mirror, err := AttachMirror(board, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	mirror.Instrument(reg)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_ = mirror.Close()
	board.Post("r/1", comm.PhaseOnline, comm.CatMu, []byte{1, 2})
	board.Post("r/2", comm.PhaseOnline, comm.CatMu, []byte{3})
	if got := mirror.Errors(); got != 2 {
		t.Errorf("mirror.Errors() = %d, want 2", got)
	}
	if got := reg.Snapshot().Counters["transport.mirror_post_errors"]; got != 2 {
		t.Errorf("transport.mirror_post_errors = %d, want 2", got)
	}
	// The local board kept both postings regardless.
	if board.Len() != 2 {
		t.Errorf("local board len = %d", board.Len())
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
