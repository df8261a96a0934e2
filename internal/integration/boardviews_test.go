package integration

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"yosompc/internal/circuit"
	"yosompc/internal/core"
	"yosompc/internal/field"
	"yosompc/internal/monitor"
	"yosompc/internal/transport"
)

// TestBoardViewsAgree pins the four views of one run's board to each
// other: the run's own log, the log of the server it mirrors into, a dump
// fetched at the end and a tail opened before the first post. Both logs
// are a transport.Board filled through the same append, so the views must
// agree entry for entry and the two byte accountings must be identical.
// A monitor on the server's board and one fed by RunTail read the same
// entries, so their snapshots must be identical too.
func TestBoardViewsAgree(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := transport.Serve(ln)
	defer server.Close()
	stream, stopTail, err := transport.Tail(server.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stopTail()
	// Two monitors read the server's entries: one on its board in process,
	// one through a tail that lends it each entry from a reused buffer.
	onServer, tailing := monitor.New(), monitor.New()
	onServer.AttachBoard(server.Board)
	stopMonitor, err := tailing.RunTail(server.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stopMonitor()

	circ, err := circuit.InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	params := simParams(8, 2, 2)
	params.Proc = "views"
	// Concurrent posters: committee members post from parallel workers,
	// and the mirror (attached before the first post) must still reach the
	// server in local Seq order, because observers run under the append
	// lock.
	params.Workers = 8
	proto, err := core.New(params, circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := transport.AttachMirror(proto.Board(), server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	in := map[int][]field.Element{
		0: {field.New(1), field.New(2), field.New(3)},
		1: {field.New(4), field.New(5), field.New(6)},
	}
	if _, err := proto.Run(in); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Close(); err != nil {
		t.Fatal(err)
	}
	if n := mirror.Errors(); n != 0 {
		t.Fatalf("%d mirrored posts failed", n)
	}

	local := proto.Board().Entries(0)
	if len(local) == 0 {
		t.Fatal("the run posted nothing")
	}
	fetched, err := transport.Fetch(server.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tailed := make([]transport.Entry, 0, len(local))
	for len(tailed) < len(local) {
		select {
		case e, ok := <-stream:
			if !ok {
				t.Fatalf("tail ended after %d of %d entries", len(tailed), len(local))
			}
			tailed = append(tailed, e)
		case <-time.After(10 * time.Second):
			t.Fatalf("tail delivered %d of %d entries", len(tailed), len(local))
		}
	}

	views := []struct {
		name    string
		entries []transport.Entry
	}{
		{"server", server.Entries(0)},
		{"fetched", fetched},
		{"tailed", tailed},
	}
	for _, v := range views {
		if len(v.entries) != len(local) {
			t.Fatalf("%s view has %d entries, the run's board %d", v.name, len(v.entries), len(local))
		}
		var lastRecv int64
		for i, got := range v.entries {
			want := local[i]
			if got.Seq != i || got.Seq != want.Seq || got.From != want.From ||
				got.Phase != want.Phase || got.Category != want.Category ||
				got.Size != want.Size || got.Size != len(got.Payload) ||
				!bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("%s entry %d = %+v, the run's board has %+v", v.name, i, got, want)
			}
			// The poster's attribution survives the hop; only the receive
			// stamp is the server's own, monotone with Seq.
			if got.Trace.Proc != "views" || got.Trace.Proc != want.Trace.Proc ||
				got.Trace.Span != want.Trace.Span || got.Trace.PostUS != want.Trace.PostUS {
				t.Fatalf("%s entry %d trace = %+v, posted with %+v", v.name, i, got.Trace, want.Trace)
			}
			if got.Trace.RecvUS == 0 || got.Trace.RecvUS < lastRecv {
				t.Fatalf("%s entry %d: RecvUS %d after %d", v.name, i, got.Trace.RecvUS, lastRecv)
			}
			lastRecv = got.Trace.RecvUS
		}
	}
	if l, r := proto.Board().Report(), server.Report(); !reflect.DeepEqual(l, r) {
		t.Errorf("byte accounting differs:\nrun's board: %+v\nserver:      %+v", l, r)
	}

	// The monitors agree field for field: manifests decode from the
	// borrowed buffer, and nothing the tailing monitor kept points into it.
	for deadline := time.Now().Add(10 * time.Second); tailing.Snapshot().Entries < int64(len(local)); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the tailing monitor read %d of %d entries", tailing.Snapshot().Entries, len(local))
		}
	}
	if err := stopMonitor(); err != nil {
		t.Fatal(err)
	}
	want, got := onServer.Snapshot(), tailing.Snapshot()
	if !want.Complete || len(want.Committees) == 0 {
		t.Fatalf("the server's monitor saw an incomplete run: %+v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("monitors disagree:\ntailing:   %+v\non server: %+v", got, want)
	}
}
