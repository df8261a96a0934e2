package committee

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"strings"
	"testing"

	"yosompc/internal/comm"
	"yosompc/internal/field"
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
	PKE    pke.Scheme
	assign *yoso.Assignment
}

// decryptStep is DecryptStep over plain ciphertexts, the plaintexts reduced
// into the field.
func (f *fixture) decryptStep(tsk *Tsk, c *yoso.Committee, sp Spec, cts []tte.Ciphertext, next *yoso.Committee) ([]field.Element, error) {
	open := make([]Opening, len(cts))
	for j, ct := range cts {
		open[j].Ct = ct
	}
	ints, err := f.DecryptStep(tsk, c, sp, open, next)
	if err != nil {
		return nil, err
	}
	vals := make([]field.Element, len(ints))
	for j, v := range ints {
		vals[j] = field.FromBig(v)
	}
	return vals, nil
}

// newFixture also returns the dealer's epoch-0 tsk shares.
func newFixture(t *testing.T) (*fixture, []tte.KeyShare) {
	t.Helper()
	return newFixtureOn(t, tte.NewSim(512), pke.NewSim(), yoso.NewAdversary(1, 1, 7))
}

// newFixtureOn is newFixture on the given backends and adversary (nil: every
// member is honest until a test says otherwise).
func newFixtureOn(t *testing.T, te TE, scheme pke.Scheme, adv *yoso.Adversary) (*fixture, []tte.KeyShare) {
	t.Helper()
	auth, err := nizk.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	board := transport.NewBoard(nil)
	rt := &Runner{Board: board, Auth: auth, TE: te, Prefix: "test/"}
	tpk, shares, err := rt.TE.KeyGen(testN, testT)
	if err != nil {
		t.Fatal(err)
	}
	rt.TPK = tpk
	return &fixture{Runner: rt, PKE: scheme, assign: yoso.NewAssignment(board, scheme, adv)}, shares
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

			// An honest posting is its parts in docs/WIRE.md order — the
			// Decrypt partials, the Re-encrypt envelopes, the resharing —
			// each the encoding of that member's own partial decryption or
			// sub-share, and a malicious one occupies the same shape in
			// ciphertext-sized garbage.
			// On Sim every part has its modelled size (pinned to the
			// encodings by costmodel's TestSimSizesMatchEncodings).
			ctSize := f.TPK.CiphertextSize()
			subs, err := f.TE.Reshare(f.TPK, dealt[0])
			if err != nil {
				t.Fatal(err)
			}
			partSize, subSize := ctSize, subs[0].Size()
			nSealed := strings.Count(tc.kinds, "r")
			garbSize := (len(open)-nSealed)*ctSize + nSealed*(ctSize+pke.EnvelopeOverhead)
			if next != nil {
				garbSize += testN * (ctSize + pke.EnvelopeOverhead)
			}
			// clearAt[j], sealedAt[j] and handoffAt[j] collect, in
			// verified-member order, where in the postings the partials or
			// envelopes of opening j and the envelopes of hand-off slot j lie.
			clearAt := make([][][]byte, len(open))
			sealedAt := make([][][]byte, len(open))
			handoffAt := make([][][]byte, testN)
			postings := map[string][]byte{}
			for _, p := range f.Board.Entries(before) {
				if p.Category == sp.Cat {
					postings[p.From] = p.Payload
				}
			}
			if len(postings) != testN-1 {
				t.Errorf("%d members posted, want %d", len(postings), testN-1)
			}
			for i, role := range c.Roles {
				rest, posted := postings[role.Name()]
				switch role.Behavior {
				case yoso.FailStop:
					if posted {
						t.Errorf("%s crashed but posted", role.Name())
					}
					continue
				case yoso.Malicious:
					if len(rest) != garbSize {
						t.Errorf("%s posted %d bytes of garbage, want %d", role.Name(), len(rest), garbSize)
					}
					continue
				}
				take := func(n int) []byte {
					if len(rest) < n {
						t.Fatalf("%s: posting ends %d bytes early", role.Name(), n-len(rest))
					}
					var head []byte
					head, rest = rest[:n], rest[n:]
					return head
				}
				partial := func(j int) []byte {
					part, err := f.TE.PartialDecrypt(f.TPK, dealt[i], open[j].Ct)
					if err != nil {
						t.Fatal(err)
					}
					enc, err := f.TE.EncodePartial(part)
					if err != nil {
						t.Fatal(err)
					}
					return enc
				}
				for j, kind := range tc.kinds {
					if kind != 'd' {
						continue
					}
					enc := take(partSize)
					clearAt[j] = append(clearAt[j], enc)
					if !bytes.Equal(enc, partial(j)) {
						t.Errorf("%s: clear part for opening %d is not its partial decryption", role.Name(), j)
					}
				}
				for j, kind := range tc.kinds {
					if kind != 'r' {
						continue
					}
					env := take(partSize + pke.EnvelopeOverhead)
					sealedAt[j] = append(sealedAt[j], env)
					got, err := recipients[j].Decrypt(env)
					if err != nil || !bytes.Equal(got, partial(j)) {
						t.Errorf("%s: sealed part for opening %d does not open to its partial decryption: %v", role.Name(), j, err)
					}
				}
				if next != nil {
					for j, to := range next.Roles {
						env := take(subSize + pke.EnvelopeOverhead)
						handoffAt[j] = append(handoffAt[j], env)
						if to.Behavior == yoso.FailStop {
							continue // its key is gone with it
						}
						sub, err := openSealed(f.Runner, to.SecretKey(), env, f.TE.DecodeSubShare)
						if err != nil || sub.From() != i+1 || sub.To() != j+1 {
							t.Errorf("%s: resharing slot %d opens to %v, %v", role.Name(), j, sub, err)
						}
					}
				}
				if len(rest) != 0 {
					t.Errorf("%s: %d bytes after the last part", role.Name(), len(rest))
				}
			}

			// What the readers hold are views of those postings — not copies
			// — and no view can be grown into its neighbour.
			areViews := func(what string, views, at [][]byte) {
				t.Helper()
				if len(views) != len(at) {
					t.Fatalf("%s: %d views, want %d", what, len(views), len(at))
				}
				for m, v := range views {
					if len(v) != len(at[m]) || &v[0] != &at[m][0] {
						t.Errorf("%s: view %d is not that part of its member's posting", what, m)
					}
					if cap(v) != len(v) {
						t.Errorf("%s: view %d has %d spare bytes of its neighbour", what, m, cap(v)-len(v))
					}
				}
			}
			for j := range open {
				areViews(fmt.Sprintf("opening %d, clear", j), res.Partials[j], clearAt[j])
				areViews(fmt.Sprintf("opening %d, sealed", j), res.Sealed[j], sealedAt[j])
			}
			if tc.reshare {
				for j, slot := range tsk.handoff {
					areViews(fmt.Sprintf("hand-off slot %d", j), slot, handoffAt[j])
				}
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
					parts := make([]tte.PartialDec, len(verified))
					for m, view := range res.Partials[j] {
						if parts[m], err = f.TE.DecodePartial(f.TPK, view); err != nil {
							t.Fatalf("opening %d: partial %d: %v", j, m, err)
						}
						if parts[m].Index() != verified[m] || res.members[m] != verified[m] {
							t.Errorf("opening %d: partial %d from member %d (listed as %d), want %d",
								j, m, parts[m].Index(), res.members[m], verified[m])
						}
					}
					got, err = f.TE.Combine(f.TPK, open[j].Ct, parts)
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
						_, err := openSealed(f.Runner, role.SecretKey(), slot[0], f.TE.DecodeSubShare)
						if (err == nil) != (i == j) {
							t.Errorf("member %d opening slot %d: err = %v", i+1, j, err)
						}
					}
				}
				// The recovered shares are usable: next decrypts in turn.
				ct := f.encrypt(t, 4242)
				vals, err := f.decryptStep(tsk, next, Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "next"},
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
// TestStepLeavesCommitteeSpoken: a committee's window closes with its step,
// on the success path and when a member's honest closure errors — an
// aborted step leaves no role able to post again or holding its key.
func TestStepLeavesCommitteeSpoken(t *testing.T) {
	f, _ := newFixtureOn(t, tte.NewSim(512), pke.NewSim(), nil)
	sp := Spec{Phase: comm.PhaseOnline, Cat: comm.CatLambda, Label: "spoken"}
	for _, failAt := range []int{0, 3} {
		c := f.form(t, fmt.Sprintf("spoken%d", failAt))
		boom := fmt.Errorf("member %d cannot compute", failAt)
		posts, err := Step(f.Runner, c, sp, func(i int) (CtBundle, error) {
			if i == failAt {
				return nil, boom
			}
			return CtBundle{f.encrypt(t, int64(i))}, nil
		}, 8)
		if failAt == 0 && (err != nil || len(posts) == 0) {
			t.Fatalf("clean step: %d posts, err %v", len(posts), err)
		}
		if failAt != 0 && !errors.Is(err, boom) {
			t.Fatalf("step with failing member %d: err = %v, want %v", failAt, err, boom)
		}
		for _, role := range c.Roles {
			if !role.HasSpoken() {
				t.Errorf("failAt=%d: %s has not spoken after the step", failAt, role.Name())
			}
		}
	}
}

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
	vals, err := f.decryptStep(tsk, dec, Spec{Phase: comm.PhaseOffline, Cat: comm.CatPartial, Label: "open"}, cts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < count; g++ {
		if vals[g].Mul(vals[count+g]) != vals[2*count+g] {
			t.Errorf("triple %d: %v · %v ≠ %v", g, vals[g], vals[count+g], vals[2*count+g])
		}
	}
}

// One member's posting costs a bounded number of allocations per sealed
// opening: the partial decryption itself (three on the Sim backend), and
// nothing for encoding it, sealing it or placing it in the posting.
func TestTskPostAllocations(t *testing.T) {
	f, dealt := newFixture(t)
	next := f.form(t, "next")
	const m = 64
	open := make([]Opening, m)
	for j := range open {
		pub, _, err := f.PKE.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		open[j] = Opening{Ct: f.encrypt(t, int64(j)), Key: pub}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := f.tskPost(dealt[0], open, next); err != nil {
			t.Fatal(err)
		}
	})
	// The constant covers the posting, its offsets, the scratch and the
	// resharing's testN sub-shares.
	if budget := float64(3*m + 16); allocs > budget {
		t.Errorf("tskPost with %d sealed openings: %.0f allocations, budget %.0f", m, allocs, budget)
	}
}
