package transport

import (
	"bufio"
	"net"
	"runtime"
	"testing"
	"time"

	"yosompc/internal/comm"
	"yosompc/internal/telemetry"
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
	base := runtime.NumGoroutine()
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
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	// The reader goroutine (and the server-side handler it was connected
	// to) must exit even though nobody drained the channel.
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after stop: %d > %d before Tail", runtime.NumGoroutine(), base)
}

// Regression: Server.post used to silently drop entries for tailers whose
// channel was full; a slow consumer would see a gap in the sequence and
// never learn about the lost postings. The board must instead re-sync the
// subscription from the entry log: every Seq exactly once, in order.
func TestSlowTailerSeesEverySeq(t *testing.T) {
	// A synchronous pipe (no socket buffering) makes the tail loop block
	// on its first write, so posts deterministically overflow the
	// subscription channel and exercise the gapped/re-sync path.
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

	// Wait until the subscription is registered, so the posts below go
	// through the live channel (and overflow it) rather than being picked
	// up as backlog — backlog delivery never gaps.
	waitDeadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.subs)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatal("tail subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// Overflow the subscription channel (capacity tailBuffer) while the
	// consumer reads nothing: the excess posts must mark the sub gapped.
	const posts = 3 * tailBuffer
	for i := 0; i < posts; i++ {
		if _, err := s.post(postRequest{from: "r", phase: "online", category: "mu", claimed: 1, payload: []byte{0}}); err != nil {
			t.Fatal(err)
		}
	}

	br := bufio.NewReader(cli)
	for want := 0; want < posts; want++ {
		var e Entry
		if _, err := e.ReadFrom(br); err != nil {
			t.Fatalf("decode entry %d: %v", want, err)
		}
		if e.Seq != want {
			t.Fatalf("entry %d has seq %d (gap or duplicate)", want, e.Seq)
		}
	}

	// The subscription must still be live for later posts.
	if _, err := s.post(postRequest{from: "r", phase: "online", category: "mu", claimed: 1, payload: []byte{0}}); err != nil {
		t.Fatal(err)
	}
	var e Entry
	if _, err := e.ReadFrom(br); err != nil {
		t.Fatal(err)
	}
	if e.Seq != posts {
		t.Fatalf("post after drain has seq %d, want %d", e.Seq, posts)
	}

	// The slow tailer must be visible in the transport metrics: the
	// overflow forced at least one gapped re-sync, the lag gauge records
	// how much log the re-sync replayed, and every post was counted.
	snap := reg.Snapshot()
	if snap.Counters["transport.tail_resyncs"] == 0 {
		t.Error("transport.tail_resyncs never incremented despite overflow")
	}
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

	// Open a tail subscription with no posts pending: the tail loop parks
	// on its subscription channel, so only the conn watcher can notice the
	// client dying.
	entries, stop, err := Tail(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the subscription is registered server-side.
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

	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
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
