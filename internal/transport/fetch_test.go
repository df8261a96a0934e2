package transport

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"yosompc/internal/comm"
	"yosompc/internal/wire"
)

// The server stamps every accepted post with its own receive clock — the
// shared timeline trace merging aligns per-process clocks against — and
// preserves the poster's process/span/send-time attribution.
func TestRemotePostStampsReceiveTime(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := time.Now().UnixMicro()
	tc := TraceContext{Proc: "proc-a", Span: 42, PostUS: before, RecvUS: 777}
	if _, err := c.PostCtx("off1/1", comm.PhaseOffline, comm.CatBeaver, []byte{1, 2}, tc); err != nil {
		t.Fatal(err)
	}
	after := time.Now().UnixMicro()
	es := s.Entries(0)
	if len(es) != 1 {
		t.Fatalf("entries = %d, want 1", len(es))
	}
	got := es[0].Trace
	if got.Proc != "proc-a" || got.Span != 42 || got.PostUS != before {
		t.Errorf("poster attribution not preserved: %+v", got)
	}
	// The client-claimed RecvUS (777) must be overwritten by the server.
	if got.RecvUS < before || got.RecvUS > after {
		t.Errorf("RecvUS = %d, want a server stamp in [%d, %d]", got.RecvUS, before, after)
	}
}

// Fetch returns a one-shot snapshot over the dump opcode, trace stamps
// included, and respects `since`.
func TestFetchSnapshot(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		tc := TraceContext{Proc: "p", PostUS: time.Now().UnixMicro()}
		if _, err := c.PostCtx("onC1/1", comm.PhaseOnline, comm.CatMu, []byte{byte(i)}, tc); err != nil {
			t.Fatal(err)
		}
	}
	all, err := Fetch(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0].Seq != 0 || all[2].Seq != 2 {
		t.Fatalf("full fetch = %+v", all)
	}
	for i, e := range all {
		if e.Trace.Proc != "p" || e.Trace.RecvUS == 0 {
			t.Errorf("entry %d lost its trace stamp: %+v", i, e.Trace)
		}
	}
	later, err := Fetch(s.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(later) != 1 || later[0].Seq != 2 {
		t.Fatalf("fetch since 2 = %+v", later)
	}
	if empty, err := Fetch(s.Addr(), 99); err != nil || len(empty) != 0 {
		t.Fatalf("fetch past end = %v entries, err %v", len(empty), err)
	}
}

// A peer's announced entry count is a claim, not an allocation size: a
// 9-byte reply announcing 2^30 entries and then hanging up is a short read.
// (Preallocating the announced count killed the process with an
// unrecoverable runtime out-of-memory error.)
func TestFetchHostileCountIsAShortRead(t *testing.T) {
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
		defer conn.Close()
		_, _ = wire.ReadFrame(conn, nil) // the dump request
		_, _ = conn.Write(wire.AppendUint32(wire.AppendFrameHeader(nil, 4), 1<<30))
	}()
	if _, err := Fetch(ln.Addr().String(), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Fetch of a hostile count = %v, want io.ErrUnexpectedEOF", err)
	}
}

// The in-process board stamps postings with its configured process name,
// the current trace span, and a post==recv timestamp pair.
func TestBoardTraceStamping(t *testing.T) {
	b := NewBoard(nil)
	b.SetProc("local-run")
	b.SetTraceSpan(11)
	before := time.Now().UnixMicro()
	b.Post("offB1/1", comm.PhaseOffline, comm.CatBeaver, []byte{1})
	b.SetTraceSpan(12)
	b.Post("offB1/2", comm.PhaseOffline, comm.CatBeaver, []byte{2})
	after := time.Now().UnixMicro()
	ps := b.Entries(0)
	if ps[0].Trace.Proc != "local-run" || ps[0].Trace.Span != 11 || ps[1].Trace.Span != 12 {
		t.Errorf("stamped contexts = %+v, %+v", ps[0].Trace, ps[1].Trace)
	}
	for i, p := range ps {
		if p.Trace.PostUS != p.Trace.RecvUS {
			t.Errorf("posting %d: in-process post/recv clocks differ: %+v", i, p.Trace)
		}
		if p.Trace.PostUS < before || p.Trace.PostUS > after {
			t.Errorf("posting %d: stamp %d outside [%d, %d]", i, p.Trace.PostUS, before, after)
		}
	}
}
