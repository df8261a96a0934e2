package yoso

import (
	"bytes"
	"errors"
	"testing"

	"yosompc/internal/comm"
	"yosompc/internal/pke"
	"yosompc/internal/transport"
)

func newBCWithCommittee(t *testing.T, n int, adv *Adversary) (*Broadcast, *Committee, *transport.Board) {
	t.Helper()
	board := transport.NewBoard(nil)
	assign := NewAssignment(board, pke.NewSim(), adv)
	c, err := assign.FormCommittee("bc", n, comm.PhaseOnline)
	if err != nil {
		t.Fatal(err)
	}
	return NewBroadcast(board, comm.PhaseOnline), c, board
}

func TestBroadcastSendRead(t *testing.T) {
	bc, c, board := newBCWithCommittee(t, 3, nil)
	for i := 1; i <= 3; i++ {
		if err := bc.Send(c.Role(i), bytes.Repeat([]byte{byte(i)}, 8)); err != nil {
			t.Fatal(err)
		}
	}
	bc.NextRound()
	row, err := bc.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 3 || !bytes.Equal(row["bc/2"], bytes.Repeat([]byte{2}, 8)) {
		t.Errorf("round 1 row = %v", row)
	}
	// A row holds exactly the bytes the board holds for that role.
	for _, e := range board.Entries(board.Len() - 3) {
		if !bytes.Equal(row[e.From], e.Payload) {
			t.Errorf("row[%s] = %x, board posting = %x", e.From, row[e.From], e.Payload)
		}
	}
}

func TestBroadcastCannotReadCurrentRound(t *testing.T) {
	bc, c, _ := newBCWithCommittee(t, 1, nil)
	if err := bc.Send(c.Role(1), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Read(1); !errors.Is(err, ErrFutureRound) {
		t.Errorf("read of current round: err = %v", err)
	}
	if _, err := bc.Read(0); !errors.Is(err, ErrFutureRound) {
		t.Errorf("read of round 0: err = %v", err)
	}
}

func TestBroadcastSpokeOnSend(t *testing.T) {
	bc, c, _ := newBCWithCommittee(t, 1, nil)
	r := c.Role(1)
	if err := bc.Send(r, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if !r.HasSpoken() {
		t.Error("role alive after Send")
	}
	if err := bc.Send(r, []byte{1}); !errors.Is(err, ErrDoubleSend) {
		t.Errorf("second send: err = %v", err)
	}
}

func TestBroadcastFailStopSilent(t *testing.T) {
	bc, c, _ := newBCWithCommittee(t, 2, NewAdversary(0, 2, 31))
	if err := bc.Send(c.Role(1), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	bc.NextRound()
	row, err := bc.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 0 {
		t.Errorf("crashed role's message reached the board: %v", row)
	}
	// The crashed role is still killed.
	if !c.Role(1).HasSpoken() {
		t.Error("crashed role not Spoke'd")
	}
}

func TestBroadcastRushingLeak(t *testing.T) {
	bc, c, _ := newBCWithCommittee(t, 2, nil)
	var leaked []string
	bc.SetLeak(func(role string, wire []byte) {
		leaked = append(leaked, role+":"+string(wire))
	})
	if err := bc.Send(c.Role(1), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := bc.Send(c.Role(2), []byte("b")); err != nil {
		t.Fatal(err)
	}
	// The adversary sees honest messages — the posted bytes — as they are
	// sent, within the round (rushing), before any NextRound.
	if len(leaked) != 2 || leaked[0] != "bc/1:a" || leaked[1] != "bc/2:b" {
		t.Errorf("leak order = %v", leaked)
	}
}

func TestBroadcastMetersBytes(t *testing.T) {
	bc, c, board := newBCWithCommittee(t, 1, nil)
	before := board.Report().Total
	if err := bc.Send(c.Role(1), make([]byte, 123)); err != nil {
		t.Fatal(err)
	}
	if got := board.Report().Total - before; got != 123 {
		t.Errorf("metered %d bytes, want 123", got)
	}
}

func TestBroadcastRowsIsolated(t *testing.T) {
	bc, c, _ := newBCWithCommittee(t, 2, nil)
	if err := bc.Send(c.Role(1), []byte("r1")); err != nil {
		t.Fatal(err)
	}
	bc.NextRound()
	if err := bc.Send(c.Role(2), []byte("r2")); err != nil {
		t.Fatal(err)
	}
	bc.NextRound()
	row1, err := bc.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	row2, err := bc.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(row1) != 1 || len(row2) != 1 || string(row1["bc/1"]) != "r1" || string(row2["bc/2"]) != "r2" {
		t.Errorf("rows = %v / %v", row1, row2)
	}
	// Mutating a returned row must not affect the functionality.
	row1["bc/1"] = []byte("tampered")
	again, err := bc.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(again["bc/1"]) != "r1" {
		t.Error("Read returns aliased state")
	}
	if bc.Round() != 3 {
		t.Errorf("round = %d", bc.Round())
	}
}
