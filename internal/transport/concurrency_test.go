package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"yosompc/internal/comm"
)

// Hammer the server with concurrent posters and tailers, then Close while
// traffic is still in flight. Run with -race; the invariants checked are
// "no deadlock, no panic, tailers observe a prefix of the log in order".
func TestServerConcurrentPostTailClose(t *testing.T) {
	ln := startServer(t)
	const posters, each, tailers = 4, 100, 3
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(ln.Addr())
			if err != nil {
				return // server may already be closing
			}
			defer c.Close()
			for i := 0; i < each; i++ {
				if _, err := c.Post("w", comm.PhaseOffline, comm.CatLambda, []byte{0}); err != nil {
					return
				}
			}
		}()
	}
	for i := 0; i < tailers; i++ {
		wg.Add(1)
		go func(slow bool) {
			defer wg.Done()
			entries, stop, err := Tail(ln.Addr(), 0)
			if err != nil {
				return
			}
			defer stop()
			last := -1
			for e := range entries {
				if e.Seq != last+1 {
					t.Errorf("tailer saw seq %d after %d", e.Seq, last)
					return
				}
				last = e.Seq
				if slow {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(i == 0)
	}
	// Let traffic build up, then tear the server down underneath it all.
	time.Sleep(20 * time.Millisecond)
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent post/tail/Close deadlocked")
	}
}

// The in-process Board under concurrent Post, Observe, Len and Entries.
// Observers run under the append lock, so even with concurrent posters
// they see every posting exactly once, in Seq order. Mirrored, the server
// holds after Sync what the board holds, entry for entry.
func TestBoardConcurrentUse(t *testing.T) {
	t.Run("local", func(t *testing.T) { testBoardConcurrentUse(t, false) })
	t.Run("mirrored", func(t *testing.T) { testBoardConcurrentUse(t, true) })
}

func testBoardConcurrentUse(t *testing.T, mirrored bool) {
	board := NewBoard(nil)
	var server *Server
	if mirrored {
		server = startServer(t)
		mirror, err := AttachMirror(board, server.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := mirror.Close(); err != nil || mirror.Errors() != 0 {
				t.Errorf("mirror Close = %v with %d errors", err, mirror.Errors())
			}
		}()
	}
	const posters, each = 8, 200
	var observed []int // appended to only under the board's append lock
	board.Observe(func(e Entry) { observed = append(observed, e.Seq) })
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				board.Post(fmt.Sprintf("w%d", p), comm.PhaseOnline, comm.CatMu, []byte{byte(p), byte(i)})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for board.Len() < posters*each {
			all := board.Entries(0)
			for i, p := range all {
				if p.Seq != i {
					t.Errorf("snapshot posting %d has seq %d", i, p.Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	if board.Len() != posters*each {
		t.Fatalf("len = %d, want %d", board.Len(), posters*each)
	}
	if got := board.Report().Total; got != 2*posters*each {
		t.Fatalf("total = %d, want %d", got, 2*posters*each)
	}
	if len(observed) != posters*each {
		t.Fatalf("observer saw %d postings, want %d", len(observed), posters*each)
	}
	for i, seq := range observed {
		if seq != i {
			t.Fatalf("observer call %d saw seq %d: observers ran out of Seq order", i, seq)
		}
	}
	if !mirrored {
		return
	}
	board.Sync()
	sameLog(t, server, board)
}
