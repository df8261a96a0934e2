package yoso

import (
	"fmt"
	"math/rand" //yosolint:simulation adversary corruption sampling only; role keys come from pke.Scheme/crypto-rand

	"yosompc/internal/comm"
	"yosompc/internal/pke"
	"yosompc/internal/transport"
)

// Assignment is the role-assignment functionality: it samples each
// committee's corruption pattern (the adversary corrupts a uniformly random
// fraction of computation roles — Definition 1), mints per-role keypairs,
// and publishes the public keys on the board when the committee's phase
// begins. The probabilistic guarantees a real sortition layer provides for
// these corruption patterns are analysed in internal/sortition.
type Assignment struct {
	board *transport.Board
	pke   pke.Scheme
	adv   *Adversary

	// Quorum is the speaker count reconstruction needs from each formed
	// committee — the protocol driver sets it to its threshold (packed:
	// t+2(k−1)+1, baseline: t+1) before forming committees. It is
	// published in each committee's progress manifest so a board observer
	// can judge fail-stop margins; 0 means every member is required.
	Quorum int
}

// NewAssignment builds the functionality.
func NewAssignment(board *transport.Board, scheme pke.Scheme, adv *Adversary) *Assignment {
	if adv == nil {
		adv = &Adversary{}
	}
	return &Assignment{board: board, pke: scheme, adv: adv}
}

// FormCommittee samples and equips a fresh committee of n roles. Publishing
// the n role public keys is metered in the given phase. Before minting any
// key the committee's progress manifest (expected speakers and quorum) goes
// on the board under the system phase, so monitors derive expected-speaker
// sets from board contents alone and the manifest bytes never perturb the
// protocol phases' cost accounting.
func (a *Assignment) FormCommittee(name string, n int, phase comm.Phase) (*Committee, error) {
	if n < 1 {
		return nil, fmt.Errorf("yoso: committee %q size %d", name, n)
	}
	quorum := a.Quorum
	if quorum <= 0 || quorum > n {
		quorum = n
	}
	man := transport.Manifest{Committee: name, Phase: string(phase), N: n, Quorum: quorum}
	manWire, err := man.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("yoso: encoding manifest for %q: %w", name, err)
	}
	a.board.Post("role-assignment", comm.PhaseSystem, comm.CatManifest, manWire)
	behaviors := a.adv.Sample(n)
	c := &Committee{Name: name, Roles: make([]*Role, n)}
	for i := 1; i <= n; i++ {
		pub, sec, err := a.pke.GenerateKey()
		if err != nil {
			return nil, fmt.Errorf("yoso: minting role key for %s/%d: %w", name, i, err)
		}
		c.Roles[i-1] = &Role{
			Committee: name,
			Index:     i,
			Behavior:  behaviors[i-1],
			board:     a.board,
			pub:       pub,
			sec:       sec,
		}
		a.board.Post("role-assignment", phase, comm.CatRoleKeys, pub.Bytes())
	}
	return c, nil
}

// NewKnownParty creates a known-machine role (a client holding inputs or
// receiving outputs). Known parties are subject to chosen corruption in the
// model; this driver keeps them honest, and the behavior can be overridden
// by the caller afterwards.
func (a *Assignment) NewKnownParty(name string, index int, phase comm.Phase) (*Role, error) {
	pub, sec, err := a.pke.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("yoso: minting key for known party %s/%d: %w", name, index, err)
	}
	r := &Role{
		Committee: name,
		Index:     index,
		Behavior:  Honest,
		board:     a.board,
		pub:       pub,
		sec:       sec,
	}
	a.board.Post("role-assignment", phase, comm.CatRoleKeys, pub.Bytes())
	return r, nil
}

// Adversary samples corruption patterns. The zero value is the empty
// (all-honest) adversary.
type Adversary struct {
	// Malicious is the number of actively corrupted roles per committee.
	Malicious int
	// FailStops is the number of honest roles that crash per committee.
	FailStops int
	// Leaky is the number of honest-but-curious roles per committee:
	// they execute the protocol faithfully, but their internal state
	// counts toward the adversary's view (and hence toward t).
	Leaky int
	// Seed makes corruption patterns reproducible; 0 uses a fixed seed.
	Seed int64
	// rng drives which roles the simulated adversary corrupts. This is
	// environment modelling (Definition 1), not protocol randomness: a
	// deterministic, seedable source is required so experiments reproduce,
	// and no honest-party secret ever depends on it.
	rng *rand.Rand //yosolint:simulation deterministic adversary model, reproducible by Seed
}

// NewAdversary builds an adversary corrupting `malicious` roles actively
// and crashing `failStops` roles in every committee it touches.
func NewAdversary(malicious, failStops int, seed int64) *Adversary {
	return &Adversary{Malicious: malicious, FailStops: failStops, Seed: seed}
}

// Sample returns a behavior vector for a committee of n roles, with
// exactly min(Malicious, n) malicious, then fail-stop, then leaky members
// at uniformly random positions.
func (a *Adversary) Sample(n int) []Behavior {
	if a.rng == nil {
		seed := a.Seed
		if seed == 0 {
			seed = 0x59050 // arbitrary fixed default for reproducibility
		}
		a.rng = rand.New(rand.NewSource(seed)) //yosolint:simulation adversary corruption pattern, not secret randomness
	}
	out := make([]Behavior, n)
	perm := a.rng.Perm(n)
	m := a.Malicious
	if m > n {
		m = n
	}
	f := a.FailStops
	if m+f > n {
		f = n - m
	}
	l := a.Leaky
	if m+f+l > n {
		l = n - m - f
	}
	for _, i := range perm[:m] {
		out[i] = Malicious
	}
	for _, i := range perm[m : m+f] {
		out[i] = FailStop
	}
	for _, i := range perm[m+f : m+f+l] {
		out[i] = Leaky
	}
	return out
}
