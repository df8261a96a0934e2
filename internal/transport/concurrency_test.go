package transport

import (
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

// The in-process Board under concurrent Post, Observe, Len, Get and Entries.
func TestBoardConcurrentUse(t *testing.T) {
	board := NewBoard(nil)
	const posters, each = 8, 200
	var observed sync.Map
	board.Observe(func(e Entry) { observed.Store(e.Seq, e.From) })
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				board.Post("w", comm.PhaseOnline, comm.CatMu, []byte{0, 1})
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
			if len(all) > 0 {
				if _, err := board.Get(len(all) - 1); err != nil {
					t.Error(err)
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
	count := 0
	observed.Range(func(_, _ any) bool { count++; return true })
	if count != posters*each {
		t.Fatalf("observer saw %d postings, want %d", count, posters*each)
	}
}
