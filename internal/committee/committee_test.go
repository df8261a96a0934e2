package committee

import (
	"math/big"
	"reflect"
	"strings"
	"testing"

	"yosompc/internal/comm"
	"yosompc/internal/nizk"
	"yosompc/internal/pke"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

const (
	testN = 7
	testT = 2
)

// fixture is a Runner on the Sim backends plus an assignment whose
// committees each carry one malicious and one fail-stop member.
type fixture struct {
	*Runner
	assign *yoso.Assignment
}

// newFixture also returns the dealer's epoch-0 tsk shares.
func newFixture(t *testing.T) (*fixture, []tte.KeyShare) {
	t.Helper()
	auth, err := nizk.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	board := transport.NewBoard(nil)
	rt := &Runner{Board: board, Auth: auth, TE: tte.NewSim(512), PKE: pke.NewSim(), Prefix: "test/"}
	tpk, shares, err := rt.TE.KeyGen(testN, testT)
	if err != nil {
		t.Fatal(err)
	}
	rt.TPK = tpk
	return &fixture{Runner: rt, assign: yoso.NewAssignment(board, rt.PKE, yoso.NewAdversary(1, 1, 7))}, shares
}

func (f *fixture) form(t *testing.T, name string) *yoso.Committee {
	t.Helper()
	c, err := f.assign.FormCommittee(name, testN, comm.PhaseOnline)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (f *fixture) encrypt(t *testing.T, m int64) tte.Ciphertext {
	t.Helper()
	ct, err := f.TE.Encrypt(f.TPK, big.NewInt(m), BoundP)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestTskStep(t *testing.T) {
	// kinds[j] says how opening j (plaintext 100+j) is opened: 'd' is a
	// Decrypt, 'r' a Re-encrypt to its own fresh recipient key.
	cases := []struct {
		name    string
		kinds   string
		reshare bool
	}{
		{"decrypt-only", "ddd", false},
		{"reencrypt-only", "rr", false},
		{"reshare-only", "", true},
		{"mixed", "drrdr", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, dealt := newFixture(t)
			c := f.form(t, "c")
			var next *yoso.Committee
			if tc.reshare {
				next = f.form(t, "next")
			}
			tsk, err := f.DealShares(c, dealt)
			if err != nil {
				t.Fatal(err)
			}
			open := make([]Opening, len(tc.kinds))
			recipients := make([]pke.SecretKey, len(tc.kinds))
			for j, kind := range tc.kinds {
				open[j].Ct = f.encrypt(t, int64(100+j))
				if kind == 'r' {
					if open[j].Key, recipients[j], err = f.PKE.GenerateKey(); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := f.Board.Len()
			sp := Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "step"}
			res, err := f.TskStep(tsk, c, sp, open, next)
			if err != nil {
				t.Fatal(err)
			}

			// The crashed member and the forged-proof poster are excluded,
			// nobody else is.
			var wantExcluded []string
			for _, role := range c.Roles {
				if !role.Behavior.FollowsProtocol() {
					wantExcluded = append(wantExcluded, role.Name()+"@step ("+role.Behavior.String()+")")
				}
			}
			if !reflect.DeepEqual(f.Excluded, wantExcluded) {
				t.Errorf("excluded %v, want %v", f.Excluded, wantExcluded)
			}

			// An honest posting is exactly the sum of its encoded parts, and
			// a malicious one occupies the same shape in ciphertext-sized
			// garbage.
			nSealed := strings.Count(tc.kinds, "r")
			ctSize := f.TPK.CiphertextSize()
			garbSize := (len(open)-nSealed)*ctSize + nSealed*(ctSize+pke.EnvelopeOverhead)
			if next != nil {
				garbSize += testN * (ctSize + pke.EnvelopeOverhead)
			}
			posted := 0
			for _, p := range f.Board.All()[before:] {
				if p.Category != sp.Cat {
					continue
				}
				posted++
				post := p.Payload.(TskPost)
				want := 0
				for _, part := range post.Clear {
					enc, err := f.TE.EncodePartial(part)
					if err != nil {
						t.Fatal(err)
					}
					want += len(enc)
				}
				for _, env := range append(post.Sealed[:len(post.Sealed):len(post.Sealed)], post.Reshare...) {
					enc, err := f.PKE.EncodeCiphertext(env)
					if err != nil {
						t.Fatal(err)
					}
					want += len(enc)
				}
				if len(post.Clear)+len(post.Sealed)+len(post.Reshare) == 0 {
					want = garbSize // the forged-proof poster's (or an empty step's) payload
				}
				if p.Size != want {
					t.Errorf("%s posted %d bytes, want %d", p.From, p.Size, want)
				}
			}
			if posted != testN-1 {
				t.Errorf("%d members posted, want %d", posted, testN-1)
			}

			// Each opening carries exactly the verified members'
			// contributions, and opens to its plaintext.
			verified := c.Honest()
			if len(verified) != testN-2 {
				t.Fatalf("fixture has %d protocol-following members, want %d", len(verified), testN-2)
			}
			for j, kind := range tc.kinds {
				var got *big.Int
				if kind == 'd' {
					if res.Sealed[j] != nil || len(res.Partials[j]) != len(verified) {
						t.Fatalf("opening %d: %d partials, %d envelopes; want %d, 0",
							j, len(res.Partials[j]), len(res.Sealed[j]), len(verified))
					}
					for m, part := range res.Partials[j] {
						if part.Index() != verified[m] {
							t.Errorf("opening %d: partial %d from member %d, want %d", j, m, part.Index(), verified[m])
						}
					}
					got, err = f.TE.Combine(f.TPK, open[j].Ct, res.Partials[j])
				} else {
					if res.Partials[j] != nil || len(res.Sealed[j]) != len(verified) {
						t.Fatalf("opening %d: %d partials, %d envelopes; want 0, %d",
							j, len(res.Partials[j]), len(res.Sealed[j]), len(verified))
					}
					got, err = f.CombineSealed(recipients[j], res.Sealed[j], open[j].Ct)
				}
				if err != nil {
					t.Fatalf("opening %d: %v", j, err)
				}
				if got.Int64() != int64(100+j) {
					t.Errorf("opening %d = %v, want %d", j, got, 100+j)
				}
			}

			// Hand-off slot j opens under next member j+1's key and under
			// no other member's.
			if !tc.reshare {
				if tsk.handoff != nil {
					t.Error("step without a next committee left a hand-off")
				}
			} else {
				for j, slot := range tsk.handoff {
					if len(slot) != len(verified) {
						t.Fatalf("hand-off slot %d has %d envelopes, want %d", j, len(slot), len(verified))
					}
					for i, role := range next.Roles {
						if role.Behavior == yoso.FailStop {
							continue
						}
						_, err := f.openSubShare(role.SecretKey(), slot[0])
						if (err == nil) != (i == j) {
							t.Errorf("member %d opening slot %d: err = %v", i+1, j, err)
						}
					}
				}
				// The recovered shares are usable: next decrypts in turn.
				ct := f.encrypt(t, 4242)
				vals, err := f.DecryptStep(tsk, next, Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "next"},
					[]tte.Ciphertext{ct}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if vals[0].Uint64() != 4242 {
					t.Errorf("next committee opened %v, want 4242", vals[0])
				}
			}
		})
	}
}

// A committee that was never handed tsk shares cannot run a tsk step.
func TestTskStepWithoutShares(t *testing.T) {
	f, dealt := newFixture(t)
	c, last := f.form(t, "c"), f.form(t, "last")
	tsk, err := f.DealShares(c, dealt)
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Phase: comm.PhaseOnline, Cat: comm.CatOutput, Label: "final"}
	if _, err := f.TskStep(tsk, c, sp, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.TskStep(tsk, last, sp, nil, nil); err == nil {
		t.Error("step after the final tsk committee succeeded")
	}
}

func TestBeaverTriples(t *testing.T) {
	f, dealt := newFixture(t)
	b1, b2, dec := f.form(t, "b1"), f.form(t, "b2"), f.form(t, "dec")
	const count = 3
	a, b, c, err := f.Beaver(b1, b2, count)
	if err != nil {
		t.Fatal(err)
	}
	tsk, err := f.DealShares(dec, dealt)
	if err != nil {
		t.Fatal(err)
	}
	cts := append(append(append([]tte.Ciphertext{}, a...), b...), c...)
	vals, err := f.DecryptStep(tsk, dec, Spec{Phase: comm.PhaseOffline, Cat: comm.CatPartial, Label: "open"}, cts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < count; g++ {
		if vals[g].Mul(vals[count+g]) != vals[2*count+g] {
			t.Errorf("triple %d: %v · %v ≠ %v", g, vals[g], vals[count+g], vals[2*count+g])
		}
	}
}
