package yoso

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"yosompc/internal/comm"
	"yosompc/internal/pke"
	"yosompc/internal/transport"
)

func newTestAssignment(adv *Adversary) (*Assignment, *transport.Board) {
	board := transport.NewBoard(nil)
	return NewAssignment(board, pke.NewSim(), adv), board
}

func TestFormCommittee(t *testing.T) {
	a, board := newTestAssignment(nil)
	c, err := a.FormCommittee("on1", 5, comm.PhaseOnline)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 5 {
		t.Fatalf("N = %d", c.N())
	}
	for i := 1; i <= 5; i++ {
		r := c.Role(i)
		if r.Index != i || r.Committee != "on1" {
			t.Errorf("role %d misnamed: %s", i, r.Name())
		}
		if r.PublicKey() == nil || r.SecretKey() == nil {
			t.Errorf("role %d missing keys", i)
		}
		if r.Behavior != Honest {
			t.Errorf("role %d not honest under empty adversary", i)
		}
	}
	// Key publication is metered.
	if board.Report().ByPhase[comm.PhaseOnline] == 0 {
		t.Error("role keys not metered")
	}
	if _, err := a.FormCommittee("bad", 0, comm.PhaseOnline); err == nil {
		t.Error("accepted empty committee")
	}
}

func TestFormCommitteePublishesManifest(t *testing.T) {
	a, board := newTestAssignment(nil)
	a.Quorum = 3
	if _, err := a.FormCommittee("offB1", 5, comm.PhaseOffline); err != nil {
		t.Fatal(err)
	}
	first, err := board.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if first.From != "role-assignment" || first.Phase != comm.PhaseSystem || first.Category != comm.CatManifest {
		t.Fatalf("first posting = %+v, want system-phase manifest", first)
	}
	var man transport.Manifest
	if err := man.UnmarshalBinary(first.Payload); err != nil {
		t.Fatal(err)
	}
	if man.Committee != "offB1" || man.Phase != "offline" || man.N != 5 || man.Quorum != 3 {
		t.Errorf("manifest = %+v", man)
	}
	// Manifest bytes are metered outside the protocol phases, so the
	// cost-model comparisons never see monitoring overhead.
	rep := board.Report()
	if rep.ByPhase[comm.PhaseSystem] == 0 {
		t.Error("manifest not metered under the system phase")
	}
	// A quorum above n (or 0) clamps to n: every member required.
	a.Quorum = 99
	if _, err := a.FormCommittee("tiny", 2, comm.PhaseOffline); err != nil {
		t.Fatal(err)
	}
	entry, _ := board.Get(board.Len() - 3) // manifest precedes the 2 role keys
	if err := man.UnmarshalBinary(entry.Payload); err != nil {
		t.Fatal(err)
	}
	if man.Committee != "tiny" || man.Quorum != 2 {
		t.Errorf("clamped manifest = %+v", man)
	}
}

// panicValue runs fn and returns what it panicked with (nil if it returned).
func panicValue(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestSpokeEnforcement pins the runtime speak-once rule on a single role
// and on a whole committee: any Post after Spoke or SpeakAll panics with
// ErrAlreadySpoke, while the read-only accessors stay legal.
func TestSpokeEnforcement(t *testing.T) {
	a, board := newTestAssignment(nil)
	c, err := a.FormCommittee("c", 2, comm.PhaseOffline)
	if err != nil {
		t.Fatal(err)
	}
	r := c.Role(1)
	r.Post(comm.PhaseOffline, comm.CatLambda, make([]byte, 10))
	if board.Len() != 4 { // 1 manifest + 2 role keys + 1 message
		t.Errorf("board has %d postings", board.Len())
	}
	r.Spoke()
	if !r.HasSpoken() {
		t.Error("HasSpoken false after Spoke")
	}
	if c.Role(2).HasSpoken() {
		t.Error("Spoke on one role killed its neighbour")
	}

	c.SpeakAll()
	c.SpeakAll() // a second delivery of the token is harmless
	before := board.Len()
	for _, r := range c.Roles {
		err, _ := panicValue(func() { r.Post(comm.PhaseOffline, comm.CatLambda, make([]byte, 10)) }).(error)
		if !errors.Is(err, ErrAlreadySpoke) {
			t.Errorf("%s: Post after SpeakAll panicked with %v, want ErrAlreadySpoke", r.Name(), err)
		}
		if !r.HasSpoken() || r.Name() == "" || r.PublicKey() == nil {
			t.Errorf("%s: HasSpoken/Name/PublicKey must stay usable after SpeakAll", r.Name())
		}
	}
	if board.Len() != before {
		t.Errorf("a dead role reached the board: %d postings, want %d", board.Len(), before)
	}
}

// TestSecretErasedAfterSpoke: the secret key is gone once the role has
// spoken, whether the token came from Spoke or from Committee.SpeakAll.
func TestSecretErasedAfterSpoke(t *testing.T) {
	a, _ := newTestAssignment(nil)
	c, err := a.FormCommittee("c", 3, comm.PhaseOffline)
	if err != nil {
		t.Fatal(err)
	}
	if c.Role(1).SecretKey() == nil {
		t.Fatal("live role has no secret key")
	}
	c.Role(1).Spoke()
	if c.Role(2).SecretKey() == nil {
		t.Error("Spoke on one role erased its neighbour's key")
	}
	c.SpeakAll()
	for _, r := range c.Roles {
		msg := fmt.Sprint(panicValue(func() { _ = r.SecretKey() }))
		if !strings.Contains(msg, "secret state erased") {
			t.Errorf("%s: SecretKey after Spoke panicked with %q, want \"secret state erased\"", r.Name(), msg)
		}
	}
}

func TestFailStopPostsNothing(t *testing.T) {
	a, board := newTestAssignment(NewAdversary(0, 3, 7))
	c, err := a.FormCommittee("c", 3, comm.PhaseOnline)
	if err != nil {
		t.Fatal(err)
	}
	before := board.Len()
	for i := 1; i <= 3; i++ {
		c.Role(i).Post(comm.PhaseOnline, comm.CatMu, make([]byte, 100))
	}
	if board.Len() != before {
		t.Errorf("fail-stop roles posted %d messages", board.Len()-before)
	}
}

func TestAdversarySampleCounts(t *testing.T) {
	adv := NewAdversary(3, 2, 99)
	for trial := 0; trial < 10; trial++ {
		bs := adv.Sample(10)
		var m, f, h int
		for _, b := range bs {
			switch b {
			case Malicious:
				m++
			case FailStop:
				f++
			default:
				h++
			}
		}
		if m != 3 || f != 2 || h != 5 {
			t.Fatalf("sample counts m=%d f=%d h=%d", m, f, h)
		}
	}
}

func TestAdversarySampleClamps(t *testing.T) {
	adv := NewAdversary(5, 5, 1)
	bs := adv.Sample(6)
	var m, f int
	for _, b := range bs {
		switch b {
		case Malicious:
			m++
		case FailStop:
			f++
		}
	}
	if m != 5 || f != 1 {
		t.Errorf("clamping failed: m=%d f=%d", m, f)
	}
}

func TestAdversaryReproducible(t *testing.T) {
	a1 := NewAdversary(2, 1, 42)
	a2 := NewAdversary(2, 1, 42)
	for i := 0; i < 5; i++ {
		b1 := a1.Sample(8)
		b2 := a2.Sample(8)
		for j := range b1 {
			if b1[j] != b2[j] {
				t.Fatal("same seed produced different patterns")
			}
		}
	}
}

func TestAdversaryPositionsVary(t *testing.T) {
	adv := NewAdversary(1, 0, 5)
	positions := map[int]bool{}
	for i := 0; i < 50; i++ {
		for j, b := range adv.Sample(10) {
			if b == Malicious {
				positions[j] = true
			}
		}
	}
	if len(positions) < 3 {
		t.Errorf("malicious position nearly constant: %v", positions)
	}
}

func TestCommitteeHelpers(t *testing.T) {
	a, _ := newTestAssignment(NewAdversary(2, 1, 3))
	c, err := a.FormCommittee("c", 6, comm.PhaseOnline)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CountBehavior(Malicious); got != 2 {
		t.Errorf("malicious = %d", got)
	}
	if got := c.CountBehavior(FailStop); got != 1 {
		t.Errorf("fail-stop = %d", got)
	}
	if got := len(c.Honest()); got != 3 {
		t.Errorf("honest = %d", got)
	}
	c.SpeakAll()
	for i := 1; i <= 6; i++ {
		if !c.Role(i).HasSpoken() {
			t.Errorf("role %d alive after SpeakAll", i)
		}
	}
}

func TestBehaviorString(t *testing.T) {
	for _, b := range []Behavior{Honest, Malicious, FailStop, Behavior(9)} {
		if b.String() == "" {
			t.Errorf("empty string for %d", int(b))
		}
	}
}

func TestBoardPostingOrder(t *testing.T) {
	board := transport.NewBoard(nil)
	s1 := board.Post("a", comm.PhaseSetup, comm.CatCRS, []byte{1})
	s2 := board.Post("b", comm.PhaseSetup, comm.CatCRS, []byte{2, 2})
	if s1 != 0 || s2 != 1 {
		t.Errorf("sequence numbers %d, %d", s1, s2)
	}
	p, err := board.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Payload, []byte{2, 2}) || p.From != "b" {
		t.Errorf("posting = %+v", p)
	}
	if _, err := board.Get(5); err == nil {
		t.Error("Get(5) succeeded on 2-entry board")
	}
	if len(board.Entries(0)) != 2 {
		t.Error("Entries(0) wrong length")
	}
}

func TestMeterAttribution(t *testing.T) {
	m := &comm.Meter{}
	m.Add(comm.PhaseOffline, comm.CatBeaver, 100)
	m.Add(comm.PhaseOffline, comm.CatLambda, 50)
	m.Add(comm.PhaseOnline, comm.CatMu, 25)
	r := m.Report()
	if r.Total != 175 || r.Postings != 3 {
		t.Errorf("total=%d postings=%d", r.Total, r.Postings)
	}
	if r.Phase(comm.PhaseOffline) != 150 {
		t.Errorf("offline = %d", r.Phase(comm.PhaseOffline))
	}
	if r.ByCat[comm.PhaseOnline][comm.CatMu] != 25 {
		t.Errorf("online/mu = %d", r.ByCat[comm.PhaseOnline][comm.CatMu])
	}
	if got := r.PerGate(comm.PhaseOnline, 5); got != 5.0 {
		t.Errorf("PerGate = %v", got)
	}
	if got := r.PerGate(comm.PhaseOnline, 0); got != 0 {
		t.Errorf("PerGate(0 gates) = %v", got)
	}
	if r.String() == "" {
		t.Error("empty report string")
	}
	m.Reset()
	if m.Report().Total != 0 {
		t.Error("Reset did not zero meter")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		100:     "100 B",
		2048:    "2.00 KiB",
		1 << 21: "2.00 MiB",
		1 << 31: "2.00 GiB",
	}
	for n, want := range cases {
		if got := comm.HumanBytes(n); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRatio(t *testing.T) {
	if comm.Ratio(10, 2) != 5 {
		t.Error("Ratio(10,2) != 5")
	}
	if comm.Ratio(10, 0) != 0 {
		t.Error("Ratio(10,0) != 0")
	}
}

func TestLeakyBehavior(t *testing.T) {
	adv := &Adversary{Malicious: 1, FailStops: 1, Leaky: 2, Seed: 61}
	bs := adv.Sample(8)
	counts := map[Behavior]int{}
	for _, b := range bs {
		counts[b]++
	}
	if counts[Malicious] != 1 || counts[FailStop] != 1 || counts[Leaky] != 2 || counts[Honest] != 4 {
		t.Errorf("counts = %v", counts)
	}
	if !Leaky.FollowsProtocol() || !Honest.FollowsProtocol() {
		t.Error("protocol-following behaviors misclassified")
	}
	if Malicious.FollowsProtocol() || FailStop.FollowsProtocol() {
		t.Error("deviating behaviors misclassified")
	}
}
