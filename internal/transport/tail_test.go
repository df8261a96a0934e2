package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yosompc/internal/comm"
	"yosompc/internal/telemetry"
	"yosompc/internal/wire"
)

// Regression: the Tail reader goroutine used to block forever on `out <- e`
// when the consumer stopped draining, leaking the goroutine and pinning the
// TCP connection even after the closer was called.
func TestTailStopUnblocksReader(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// More than the Tail channel capacity (64), so the reader goroutine
	// ends up blocked mid-send once the consumer stops draining.
	const posts = 100
	for i := 0; i < posts; i++ {
		if _, err := c.Post("r", comm.PhaseOnline, comm.CatMu, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	entries, stop, err := Tail(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the reader to fill the channel; by then it is blocked
	// trying to deliver entry 65 to a consumer that will never read.
	deadline := time.Now().Add(5 * time.Second)
	for len(entries) < cap(entries) {
		if time.Now().After(deadline) {
			t.Fatalf("tail channel never filled: %d/%d", len(entries), cap(entries))
		}
		time.Sleep(time.Millisecond)
	}
	// The reader goroutine (and the server-side handler it was connected
	// to) must exit even though nobody drained the channel: stop waits for
	// the reader, and TestMain's leak check fails the run if either stays.
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// Regression: Server.post used to silently drop entries for tailers that
// fell behind; a slow consumer would see a gap in the sequence and never
// learn about the lost postings. The tail reads the board's log itself, so
// however far behind it falls it sends every Seq exactly once, in order.
func TestSlowTailerSeesEverySeq(t *testing.T) {
	// A synchronous pipe (no socket buffering) makes the tail loop block
	// on its first write, so the posts below pile up in the log far ahead
	// of what the tailer has sent.
	s := newServer(nil)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.tail(srv, bufio.NewWriter(srv), 0)
	}()

	// Wait until the tailer is parked on the empty log, so the posts below
	// arrive live rather than as backlog.
	waitParked(t, s)

	// Post while the consumer reads nothing.
	const posts = 768
	for i := 0; i < posts; i++ {
		if _, err := s.post(Entry{From: "r", Phase: "online", Category: "mu", Payload: []byte{0}}); err != nil {
			t.Fatal(err)
		}
	}

	// A tail loop that leaves entries unflushed while it waits fails here
	// in seconds instead of hanging the test binary.
	if err := cli.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(cli)
	for want := 0; want < posts; want++ {
		e, err := readEntry(br)
		if err != nil {
			t.Fatalf("decode entry %d: %v", want, err)
		}
		if e.Seq != want {
			t.Fatalf("entry %d has seq %d (gap or duplicate)", want, e.Seq)
		}
	}

	// The subscription must still be live for later posts.
	if _, err := s.post(Entry{From: "r", Phase: "online", Category: "mu", Payload: []byte{0}}); err != nil {
		t.Fatal(err)
	}
	e, err := readEntry(br)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != posts {
		t.Fatalf("post after drain has seq %d, want %d", e.Seq, posts)
	}

	// The slow tailer must be visible in the transport metrics: the lag
	// gauge records the largest batch one wake-up wrote, and every post
	// was counted.
	snap := reg.Snapshot()
	if snap.Gauges["transport.tail_lag_max"] <= 0 {
		t.Errorf("transport.tail_lag_max = %d, want > 0", snap.Gauges["transport.tail_lag_max"])
	}
	if got := snap.Counters["transport.posts"]; got != posts+1 {
		t.Errorf("transport.posts = %d, want %d", got, posts+1)
	}
	if got := snap.Histograms["transport.post_bytes"].Count; got != posts+1 {
		t.Errorf("transport.post_bytes count = %d, want %d", got, posts+1)
	}
	if snap.Histograms["transport.tail_write_ns"].Count == 0 {
		t.Error("transport.tail_write_ns histogram empty")
	}

	cli.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tail loop did not exit after connection close")
	}
}

// A tailer that goes away without unsubscribing must be reaped by the
// connection watcher — and the reap must be observable via the
// transport.conn_reaps counter.
func TestDeadTailerReapCounted(t *testing.T) {
	s := startServer(t)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)

	// Open a tail with no posts pending: the tail loop parks on the empty
	// log, so only the conn watcher can notice the client dying.
	entries, stop, err := Tail(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitParked(t, s)

	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if reg.Snapshot().Counters["transport.conn_reaps"] == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := reg.Snapshot().Counters["transport.conn_reaps"]; got != 1 {
		t.Fatalf("transport.conn_reaps = %d, want 1", got)
	}
	// Drain whatever the closed channel held.
	for range entries {
	}
}

// readEntry reads one entry frame from a tail stream.
func readEntry(br *bufio.Reader) (Entry, error) {
	body, err := wire.ReadFrame(br, nil)
	if err != nil {
		return Entry{}, err
	}
	var e Entry
	err = e.decode(body)
	return e, err
}

// waitParked waits until a tailer is parked on the server's board, waiting
// for the log to grow.
func waitParked(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.Board.mu.Lock()
		parked := s.grown != nil
		s.Board.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("tailer never parked on the board")
		}
		time.Sleep(time.Millisecond)
	}
}

// countingConn counts the Write calls that reach the connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// Live posts that pile up in the log while the tailer is busy go out as
// one batch — buffered back to back and flushed once — instead of one
// flush per entry, and still as every Seq exactly once, in order.
func TestTailCoalescesBurst(t *testing.T) {
	s := newServer(nil)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	srv, cli := net.Pipe()
	defer cli.Close()
	conn := &countingConn{Conn: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.tail(conn, bufio.NewWriter(conn), 0)
	}()
	waitParked(t, s)

	// Nobody reads the pipe yet, so the flush carrying the first post
	// blocks and the rest pile up in the log behind it.
	const posts = 64
	for i := 0; i < posts; i++ {
		if _, err := s.post(Entry{From: "r", Phase: "online", Category: "mu", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}

	if err := cli.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(cli)
	for want := 0; want < posts; want++ {
		e, err := readEntry(br)
		if err != nil {
			t.Fatalf("decode entry %d: %v", want, err)
		}
		if e.Seq != want || e.Payload[0] != byte(want) {
			t.Fatalf("entry %d has seq %d, payload %v (gap, duplicate or reorder)", want, e.Seq, e.Payload)
		}
	}
	cli.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tail loop did not exit after connection close")
	}

	writes := conn.writes.Load()
	if writes >= posts {
		t.Errorf("%d entries took %d writes: the tail flushed per entry, not per burst", posts, writes)
	}
	// tail_write_ns observes each flushed batch once.
	if bursts := reg.Snapshot().Histograms["transport.tail_write_ns"].Count; bursts < 1 || bursts > writes {
		t.Errorf("transport.tail_write_ns count = %d, want 1..%d (one per flushed batch)", bursts, writes)
	}
}

// tailFuncUntil follows s from Seq 0 with TailFunc until fn has seen n
// entries, then stops the tail; stop must report a clean end.
func tailFuncUntil(t *testing.T, addr string, n int, fn func(*Entry)) {
	t.Helper()
	seen := make(chan struct{})
	count := 0
	stop, err := TailFunc(addr, 0, func(e *Entry) {
		fn(e)
		if count++; count == n {
			close(seen)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-seen:
	case <-time.After(10 * time.Second):
		t.Errorf("the tail delivered %d of %d entries", count, n)
	}
	if err := stop(); err != nil {
		t.Errorf("stop = %v, want nil", err)
	}
}

// Entries of decreasing size, read one after another into the tail's one
// reused buffer, arrive byte-exact: each read stops at its entry's
// announced length, however large the buffer has grown, instead of
// running on into the next frame.
func TestTailFuncDecreasingSizesByteExact(t *testing.T) {
	s := startServer(t)
	var want [][]byte
	for i, size := range []int{1<<20 + 1, 64 << 10, 1, 0} {
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i + j*31)
		}
		want = append(want, p)
		s.Post(fmt.Sprintf("r%d", i), comm.PhaseOnline, comm.CatMu, p)
	}
	var got []int
	tailFuncUntil(t, s.Addr(), len(want), func(e *Entry) {
		got = append(got, e.Seq)
		if e.Seq >= len(want) || e.From != fmt.Sprintf("r%d", e.Seq) ||
			e.Size != len(want[e.Seq]) || !bytes.Equal(e.Payload, want[e.Seq]) {
			t.Errorf("entry %d: from %q, %d payload bytes, want %d byte-exact", e.Seq, e.From, len(e.Payload), len(want[e.Seq]))
		}
	})
	if len(got) != len(want) || got[0] != 0 || got[len(got)-1] != len(want)-1 {
		t.Errorf("tail delivered seqs %v", got)
	}
}

// The tail's buffer keeps the forged-length bound: once it has grown to
// about a megabyte, a frame announcing a 1 GiB payload and then hanging
// up allocates no more than the larger of wire's 1 MiB read chunk and
// the buffer's capacity, and ends the stream with io.ErrUnexpectedEOF.
func TestTailFuncForgedLengthAfterGrowth(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	grown := make(chan int, 1) // the buffer's capacity after the first entry
	forge := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadFrame(conn, nil); err != nil { // the tail request
			return
		}
		first, _ := Entry{From: "r", Phase: "online", Category: "mu", Payload: make([]byte, 1<<20)}.MarshalBinary()
		if _, err := conn.Write(first); err != nil {
			return
		}
		<-forge
		forged, _ := Entry{Seq: 1, From: "r", Phase: "online", Category: "mu"}.MarshalBinary()
		binary.BigEndian.PutUint32(forged[1:], 1<<30) // body length
		_, _ = conn.Write(forged)
	}()
	ended := make(chan struct{})
	stop, err := TailFuncEnd(ln.Addr().String(), 0, func(e *Entry) {
		if e.Seq != 0 {
			t.Errorf("the forged frame was delivered as entry %d", e.Seq)
			return
		}
		grown <- cap(e.Payload)
	}, func() { close(ended) })
	if err != nil {
		t.Fatal(err)
	}
	var bufCap int
	select {
	case bufCap = <-grown:
	case <-time.After(10 * time.Second):
		t.Fatal("the first entry never arrived")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(forge)
	<-served
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the stream did not end after the forged frame")
	}
	runtime.ReadMemStats(&after)
	err = stop()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("stop after the forged frame = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(max(1<<20, bufCap)); grew > bound {
		t.Errorf("a frame announcing 1 GiB after a %d-byte buffer allocated %d bytes, bound %d", bufCap, grew, bound)
	}
}

// A tail reader borrows what it drops: following 256 entries of 256 KiB
// through TailFunc allocates less than two payloads' worth in all (the
// buffer, once, and the entries' small fields), where Tail allocates
// every payload again.
func TestTailFuncAllocatesOneBuffer(t *testing.T) {
	const entries, size = 256, 256 << 10
	s := startServer(t)
	// One shared payload keeps the board itself at one payload's worth.
	payload := make([]byte, size)
	for i := 0; i < entries; i++ {
		s.Post("r", comm.PhaseOnline, comm.CatMu, payload)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tailFuncUntil(t, s.Addr(), entries, func(*Entry) {})
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2*size {
		t.Errorf("following %d entries of %d bytes allocated %d KiB, want under %d KiB", entries, size, grew>>10, 2*size>>10)
	}
}

// Both ways a TailFunc stream ends — the server closing it, and stop
// called while fn is running — end it cleanly: stop waits for the call in
// progress and returns nil, and the end hook runs once the reader is done.
func TestTailFuncStreamEnds(t *testing.T) {
	t.Run("server close", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := Serve(ln)
		ended := make(chan struct{})
		stop, err := TailFuncEnd(s.Addr(), 0, func(*Entry) {}, func() { close(ended) })
		if err != nil {
			t.Fatal(err)
		}
		waitParked(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ended:
		case <-time.After(5 * time.Second):
			t.Fatal("the stream did not end on server close")
		}
		if err := stop(); err != nil {
			t.Errorf("stop after a clean server close = %v, want nil", err)
		}
	})
	t.Run("stop during fn", func(t *testing.T) {
		s := startServer(t)
		s.Post("r", comm.PhaseOnline, comm.CatMu, []byte{1})
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		stop, err := TailFunc(s.Addr(), 0, func(*Entry) {
			once.Do(func() {
				close(entered)
				<-release
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		<-entered
		stopped := make(chan error, 1)
		go func() { stopped <- stop() }()
		select {
		case err := <-stopped:
			t.Fatalf("stop returned %v while fn was still running", err)
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		select {
		case err := <-stopped:
			if err != nil {
				t.Errorf("stop while fn ran = %v, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("stop did not return after fn did")
		}
		if err := stop(); err != nil {
			t.Errorf("second stop = %v, want nil", err)
		}
	})
}
