package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"yosompc/internal/comm"
)

// Posting never waits for boardd: with the mirror's connection stalled — a
// proxy that reads nothing until its gate opens — every post of 32 MiB
// returns at once, and only Sync waits. Once the gate opens, the server
// holds every posting, in the board's Seq order.
func TestMirrorPostingDoesNotWaitForServer(t *testing.T) {
	s := startServer(t)
	addr, open := gatedProxy(t, s.Addr())
	board := NewBoard(nil)
	mirror, err := AttachMirror(board, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	defer open() // before Close, which drains, on every way out

	const posts, size = 64, 512 << 10
	slowest := make(chan time.Duration, 1)
	go func() {
		var worst time.Duration
		for i := 0; i < posts; i++ {
			payload := bytes.Repeat([]byte{byte(i)}, size)
			start := time.Now()
			board.Post(fmt.Sprintf("r/%d", i), comm.PhaseOnline, comm.CatMu, payload)
			worst = max(worst, time.Since(start))
		}
		slowest <- worst
	}()
	select {
	case d := <-slowest:
		if d > time.Second {
			t.Errorf("the slowest post took %v with the server not reading", d)
		}
	case <-time.After(10 * time.Second):
		open()
		<-slowest
		t.Fatalf("posting %d MiB waited for a server that reads nothing", posts*size>>20)
	}

	synced := make(chan struct{})
	go func() {
		defer close(synced)
		board.Sync()
	}()
	select {
	case <-synced:
		t.Fatal("Sync returned while the server could read nothing")
	case <-time.After(100 * time.Millisecond):
	}
	open()
	select {
	case <-synced:
	case <-time.After(10 * time.Second):
		t.Fatal("Sync did not return after the gate opened")
	}

	sameLog(t, s, board)
	if n := mirror.Errors(); n != 0 {
		t.Errorf("mirror.Errors() = %d", n)
	}
}

// sameLog fails the test unless the server holds the board's log entry for
// entry: Seq, attribution, payload and the poster's trace stamp. Only the
// receive stamp is the server's own.
func sameLog(t *testing.T, server *Server, board *Board) {
	t.Helper()
	local, remote := board.Entries(0), server.Entries(0)
	if len(remote) != len(local) {
		t.Fatalf("server holds %d postings, the board %d", len(remote), len(local))
	}
	for i, got := range remote {
		want := local[i]
		if got.Seq != want.Seq || got.From != want.From || got.Phase != want.Phase ||
			got.Category != want.Category || !bytes.Equal(got.Payload, want.Payload) ||
			got.Trace.Proc != want.Trace.Proc || got.Trace.Span != want.Trace.Span ||
			got.Trace.PostUS != want.Trace.PostUS {
			t.Fatalf("server entry %d = %s seq %d, the board has %s seq %d", i, got.From, got.Seq, want.From, want.Seq)
		}
	}
}

// within fails the test unless fn returns within ten seconds.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// gatedProxy relays one connection to the server at addr, byte for byte in
// both directions, but reads nothing from its client until open is called.
func gatedProxy(t *testing.T, addr string) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		client, err := ln.Accept()
		if err != nil {
			return
		}
		defer client.Close()
		server, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		<-gate
		answers := make(chan struct{})
		go func() {
			defer close(answers)
			_, _ = io.Copy(client, server)
		}()
		_, _ = io.Copy(server, client) // until the client hangs up
		server.Close()
		<-answers
	}()
	t.Cleanup(func() {
		open()
		ln.Close()
		<-done
	})
	return ln.Addr().String(), open
}

// dyingProxy stands between a mirror and the server at addr, and dies
// mid-stream: it relays the first in bytes the mirror sends and the first
// out bytes of the server's answers, then hangs up on the server, stops
// answering (a half-close) and drops whatever else the mirror sends. done
// closes once the mirror has hung up too.
func dyingProxy(t *testing.T, addr string, in, out int64) (string, <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		client, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer client.Close()
		server, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		_, _ = io.CopyN(server, client, in)
		_, _ = io.CopyN(client, server, out)
		server.Close()
		_ = client.(*net.TCPConn).CloseWrite()
		_, _ = io.Copy(io.Discard, client)
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), done
}
