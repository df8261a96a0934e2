package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"yosompc/internal/comm"
)

func TestBoardAppendOnly(t *testing.T) {
	b := NewBoard(nil)
	for i := 0; i < 10; i++ {
		seq := b.Post(fmt.Sprintf("r%d", i), comm.PhaseOffline, comm.CatLambda, bytes.Repeat([]byte{byte(i)}, i))
		if seq != i {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i := 0; i < 10; i++ {
		p, err := b.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if p.Size != i || !bytes.Equal(p.Payload, bytes.Repeat([]byte{byte(i)}, i)) {
			t.Errorf("posting %d = %+v", i, p)
		}
	}
}

func TestBoardGetOutOfRange(t *testing.T) {
	b := NewBoard(nil)
	if _, err := b.Get(0); err == nil {
		t.Error("Get on empty board succeeded")
	}
	if _, err := b.Get(-1); err == nil {
		t.Error("Get(-1) succeeded")
	}
}

func TestBoardSharedMeter(t *testing.T) {
	m := &comm.Meter{}
	b1 := NewBoard(m)
	b2 := NewBoard(m)
	b1.Post("a", comm.PhaseOnline, comm.CatMu, make([]byte, 10))
	b2.Post("b", comm.PhaseOnline, comm.CatMu, make([]byte, 20))
	if m.Report().Total != 30 {
		t.Errorf("shared meter total = %d, want 30", m.Report().Total)
	}
	if b1.Meter() != m {
		t.Error("Meter() does not return the shared meter")
	}
}

func TestBoardConcurrentPosts(t *testing.T) {
	b := NewBoard(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Post(fmt.Sprintf("g%d", g), comm.PhaseOffline, comm.CatBeaver, []byte{0})
			}
		}(g)
	}
	wg.Wait()
	if b.Len() != 800 {
		t.Errorf("Len = %d, want 800", b.Len())
	}
	// Sequence numbers must be dense and unique.
	seen := map[int]bool{}
	for _, p := range b.Entries(0) {
		if seen[p.Seq] {
			t.Fatalf("duplicate seq %d", p.Seq)
		}
		seen[p.Seq] = true
	}
	if b.Report().Postings != 800 {
		t.Errorf("postings = %d", b.Report().Postings)
	}
}

// Entries returns a snapshot from `since` — later posts do not grow it and
// writing to it does not reach the log — and clamps out-of-range bounds.
func TestBoardEntries(t *testing.T) {
	b := NewBoard(nil)
	b.Post("a", comm.PhaseSetup, comm.CatCRS, []byte{1})
	all := b.Entries(0)
	b.Post("b", comm.PhaseSetup, comm.CatCRS, []byte{2})
	if len(all) != 1 {
		t.Error("Entries() snapshot grew")
	}
	all[0].From = "tampered"
	if e, _ := b.Get(0); e.From != "a" {
		t.Error("Entries() aliases the log")
	}
	if later := b.Entries(1); len(later) != 1 || later[0].Seq != 1 || later[0].From != "b" {
		t.Errorf("Entries(1) = %+v", later)
	}
	if neg := b.Entries(-3); len(neg) != 2 {
		t.Errorf("Entries(-3) returned %d entries, want 2", len(neg))
	}
	if past := b.Entries(2); len(past) != 0 {
		t.Errorf("Entries past the end = %+v", past)
	}
}

// Observe delivers every appended entry — Seq, trace stamp and bytes as
// stored — whichever door the post came through: an in-process Post or a
// remote post accepted by a Server, whose log is a Board.
func TestBoardObserve(t *testing.T) {
	s := startServer(t)
	seen := make(chan Entry, 4)
	s.Observe(func(e Entry) { seen <- e })
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Post("offR/2", comm.PhaseOffline, comm.CatLambda, []byte{7}); err != nil {
		t.Fatal(err)
	}
	s.Post("offR/3", comm.PhaseOffline, comm.CatLambda, []byte{8, 9})
	for seq, from := range []string{"offR/2", "offR/3"} {
		select {
		case e := <-seen:
			stored, _ := s.Get(seq)
			if e.From != from || e.Seq != seq || e.Trace.RecvUS == 0 || e.Size != seq+1 ||
				e.Trace != stored.Trace || !bytes.Equal(e.Payload, stored.Payload) {
				t.Errorf("observed entry = %+v, stored %+v", e, stored)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("observer not called")
		}
	}
}

// The board's Size is measured from the posted bytes, never claimed: a nil
// payload encoding meters zero, and the stored bytes round-trip unchanged.
func TestBoardSizeIsMeasured(t *testing.T) {
	b := NewBoard(nil)
	b.Post("a", comm.PhaseSetup, comm.CatCRS, nil)
	wire := []byte{0xde, 0xad, 0xbe, 0xef}
	b.Post("b", comm.PhaseOnline, comm.CatMu, wire)
	p0, _ := b.Get(0)
	if p0.Size != 0 || len(p0.Payload) != 0 {
		t.Errorf("nil-encoding post: size %d bytes %d, want 0/0", p0.Size, len(p0.Payload))
	}
	p1, _ := b.Get(1)
	if p1.Size != 4 || !bytes.Equal(p1.Payload, wire) {
		t.Errorf("post bytes = %x size %d, want %x size 4", p1.Payload, p1.Size, wire)
	}
	if got := b.Report().Total; got != 4 {
		t.Errorf("metered total = %d, want 4", got)
	}
}
