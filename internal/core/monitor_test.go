package core

import (
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/monitor"
	"yosompc/internal/yoso"
)

// TestMonitorDerivesRunProgressFromBoard pins the monitor acceptance
// contract: attached to a run's board and given nothing else, the monitor
// reports every committee complete for an all-honest run, and for a
// fail-stop run it identifies the silent members and the remaining §5.4
// margin — all derived from manifests and postings alone.
func TestMonitorDerivesRunProgressFromBoard(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {2, 3}, 1: {4, 5}})

	t.Run("honest", func(t *testing.T) {
		proto, err := New(simParams(7, 1, 2, nil), circ, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := monitor.New()
		m.AttachBoard(proto.Board())
		if _, err := proto.Run(in); err != nil {
			t.Fatal(err)
		}
		s := m.Snapshot()
		if !s.Complete || s.Fraction != 1 {
			t.Fatalf("honest run not complete: %+v", s)
		}
		for _, c := range s.Committees {
			if c.Posted != c.N || len(c.Missing) != 0 {
				t.Errorf("committee %s incomplete: %+v", c.Committee, c)
			}
			if c.Quorum != 1+2*(2-1)+1 { // t + 2(k−1) + 1
				t.Errorf("committee %s quorum = %d", c.Committee, c.Quorum)
			}
		}
		if s.Unexpected != 0 {
			t.Errorf("unexpected posts: %d", s.Unexpected)
		}
	})

	t.Run("failstop", func(t *testing.T) {
		adv := yoso.NewAdversary(0, 1, 7) // one silent member per committee
		proto, err := New(simParams(7, 1, 2, adv), circ, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := monitor.New()
		m.AttachBoard(proto.Board())
		if _, err := proto.Run(in); err != nil {
			t.Fatal(err)
		}
		s := m.Snapshot()
		if s.Complete {
			t.Fatal("fail-stop run reported complete")
		}
		// Every committee tolerates n − quorum = 7 − 4 = 3 fail-stops and
		// lost exactly one, so the minimum margin is 2.
		if s.MarginMin == nil || *s.MarginMin != 2 {
			t.Fatalf("margin = %v, want 2", s.MarginMin)
		}
		for _, c := range s.Committees {
			if c.Posted != c.N-1 || len(c.Missing) != 1 {
				t.Errorf("committee %s: posted %d, missing %v", c.Committee, c.Posted, c.Missing)
			}
		}
	})
}

// TestMonitorCompleteWithoutMultiplication: a circuit without a
// multiplication forms no Beaver committee, so every committee whose
// manifest the monitor reads also speaks, and the run ends complete.
func TestMonitorCompleteWithoutMultiplication(t *testing.T) {
	proto, err := New(simParams(7, 1, 2, nil), linearCircuit(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := monitor.New()
	m.AttachBoard(proto.Board())
	if _, err := proto.Run(inputsOf(map[int][]uint64{0: {3}, 1: {4}})); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if !s.Complete || s.Fraction != 1 {
		t.Fatalf("run without a multiplication not complete: %+v", s)
	}
	if len(s.Committees) != 3 {
		t.Errorf("%d committees, want 3 (OffR, OffDec, OnC1)", len(s.Committees))
	}
	for _, c := range s.Committees {
		if c.Posted != c.N {
			t.Errorf("committee %s: %d of %d posted", c.Committee, c.Posted, c.N)
		}
	}
}
