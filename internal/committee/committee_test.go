package committee

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/nizk"
	"yosompc/internal/paillier"
	"yosompc/internal/pke"
	"yosompc/internal/postlen"
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
	rt := &Runner{Board: board, Auth: auth, TE: te}
	tpk, shares, err := rt.TE.KeyGen(testN, testT)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetKey(tpk)
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

			// An honest posting is its posting key when it seals anything,
			// then its parts in docs/WIRE.md order — one per opening in list
			// order, then the resharing — each the encoding of
			// that member's own partial decryption or sub-share, sealed at
			// its part index, and a malicious one is garbage of an honest
			// posting's length.
			// On Sim every part has its modelled size (pinned to the
			// encodings by costmodel's TestSimSizesMatchEncodings).
			partSize, subSize := f.Sizes.Partial, f.Sizes.SubShare
			nSealed := strings.Count(tc.kinds, "r")
			garbSize := (len(open)-nSealed)*partSize + nSealed*(partSize+pke.EnvelopeOverhead)
			if next != nil {
				garbSize += testN * (subSize + pke.EnvelopeOverhead)
			}
			keyed := nSealed > 0 || next != nil
			if keyed {
				garbSize += pke.PostingKeySize
			}
			// keyAt, clearAt[j], sealedAt[j] and handoffAt[j] collect, in
			// verified-member order, where in the postings the posting keys,
			// the partials or envelopes of opening j and the envelopes of
			// hand-off slot j lie.
			var keyAt [][]byte
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
				var key []byte
				if keyed {
					key = take(pke.PostingKeySize)
					keyAt = append(keyAt, key)
				}
				part := 0
				for j, kind := range tc.kinds {
					if kind == 'd' {
						enc := take(partSize)
						clearAt[j] = append(clearAt[j], enc)
						if !bytes.Equal(enc, partial(j)) {
							t.Errorf("%s: clear part for opening %d is not its partial decryption", role.Name(), j)
						}
					} else {
						env := take(partSize + pke.EnvelopeOverhead)
						sealedAt[j] = append(sealedAt[j], env)
						got, err := recipients[j].AppendOpen(nil, key, part, env)
						if err != nil || !bytes.Equal(got, partial(j)) {
							t.Errorf("%s: sealed part for opening %d does not open to its partial decryption: %v", role.Name(), j, err)
						}
					}
					part++
				}
				if next != nil {
					for j, to := range next.Roles {
						env := take(subSize + pke.EnvelopeOverhead)
						handoffAt[j] = append(handoffAt[j], env)
						if to.Behavior == yoso.FailStop {
							part++
							continue // its key is gone with it
						}
						sub, err := openEnvelope(f.Runner, to.SecretKey(), key, part, env, f.TE.DecodeSubShare)
						part++
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
				if tc.kinds[j] == 'r' {
					areViews(fmt.Sprintf("opening %d, sealed", j), res.Sealed[j].envs, sealedAt[j])
					areViews(fmt.Sprintf("opening %d, posting keys", j), res.Sealed[j].keys, keyAt)
				}
			}
			if tc.reshare {
				for j, slot := range tsk.handoff {
					areViews(fmt.Sprintf("hand-off slot %d", j), slot.envs, handoffAt[j])
					areViews(fmt.Sprintf("hand-off slot %d, posting keys", j), slot.keys, keyAt)
				}
			}

			// Each opening carries exactly the verified members'
			// contributions, and opens to its plaintext.
			verified := honest(c)
			if len(verified) != testN-2 {
				t.Fatalf("fixture has %d protocol-following members, want %d", len(verified), testN-2)
			}
			for j, kind := range tc.kinds {
				var got *big.Int
				if kind == 'd' {
					if res.Sealed[j].envs != nil || len(res.Partials[j]) != len(verified) {
						t.Fatalf("opening %d: %d partials, %d envelopes; want %d, 0",
							j, len(res.Partials[j]), len(res.Sealed[j].envs), len(verified))
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
					if res.Partials[j] != nil || len(res.Sealed[j].envs) != len(verified) {
						t.Fatalf("opening %d: %d partials, %d envelopes; want 0, %d",
							j, len(res.Partials[j]), len(res.Sealed[j].envs), len(verified))
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
					if len(slot.envs) != len(verified) {
						t.Fatalf("hand-off slot %d has %d envelopes, want %d", j, len(slot.envs), len(verified))
					}
					for i, role := range next.Roles {
						if role.Behavior == yoso.FailStop {
							continue
						}
						_, err := openEnvelope(f.Runner, role.SecretKey(), slot.keys[0], slot.part, slot.envs[0], f.TE.DecodeSubShare)
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

// On the real backend a posting carries one ephemeral X25519 key, once, in
// its header: a member's posting and the dealer's delivery each start with
// their own posting key, no two postings share one, no envelope repeats it,
// and every recipient opens its own part under it.
func TestTskStepOneEphemeralKeyPerPosting(t *testing.T) {
	te, err := tte.NewThreshold(paillier.FixedTestKey(0))
	if err != nil {
		t.Fatal(err)
	}
	f, dealt := newFixtureOn(t, te, pke.NewECIES(), nil)
	c, next := f.form(t, "c"), f.form(t, "next")

	// poster[k] is who posted under posting key k.
	poster := map[string]string{}
	oneKey := func(who string, posting []byte, envs [][]byte) []byte {
		t.Helper()
		key := posting[:pke.PostingKeySize]
		if other, ok := poster[string(key)]; ok {
			t.Errorf("%s and %s share posting key %x", who, other, key)
		}
		poster[string(key)] = who
		size := pke.PostingKeySize
		for e, env := range envs {
			size += len(env)
			if bytes.Contains(env, key) {
				t.Errorf("%s: envelope %d repeats the posting key", who, e)
			}
		}
		if size > len(posting) {
			t.Errorf("%s: the key and the envelopes are %d bytes, the posting %d", who, size, len(posting))
		}
		return key
	}
	opens := func(who string, sk pke.SecretKey, key []byte, part int, env []byte) {
		t.Helper()
		if _, err := sk.AppendOpen(nil, key, part, env); err != nil {
			t.Errorf("%s: recipient cannot open its envelope: %v", who, err)
		}
	}

	before := f.Board.Len()
	tsk, err := f.DealShares(c, dealt)
	if err != nil {
		t.Fatal(err)
	}
	dealer := f.Board.Entries(before)
	if len(dealer) != 1 {
		t.Fatalf("dealer posted %d times, want one posting", len(dealer))
	}
	delivery := dealer[0].Payload
	// Envelope i is share i's encoding sealed, in share order.
	var envs [][]byte
	rest := delivery[pke.PostingKeySize:]
	for _, sh := range dealt {
		enc, err := f.TE.EncodeKeyShare(sh)
		if err != nil {
			t.Fatal(err)
		}
		n := pke.EnvelopeOverhead + len(enc)
		envs, rest = append(envs, rest[:n]), rest[n:]
	}
	if len(rest) != 0 {
		t.Errorf("dealer's delivery has %d bytes after the last envelope", len(rest))
	}
	key := oneKey("dealer", delivery, envs)
	for i, env := range envs {
		opens(fmt.Sprintf("dealer's envelope %d", i+1), c.Roles[i].SecretKey(), key, i, env)
	}

	const kinds = "rdrr"
	open := make([]Opening, len(kinds))
	recipients := make([]pke.SecretKey, len(kinds))
	for j, kind := range kinds {
		open[j].Ct = f.encrypt(t, int64(100+j))
		if kind == 'r' {
			if open[j].Key, recipients[j], err = f.PKE.GenerateKey(); err != nil {
				t.Fatal(err)
			}
		}
	}
	before = f.Board.Len()
	sp := Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "step"}
	res, err := f.TskStep(tsk, c, sp, open, next)
	if err != nil {
		t.Fatal(err)
	}
	postings := map[string][]byte{}
	for _, p := range f.Board.Entries(before) {
		if p.Category == sp.Cat {
			postings[p.From] = p.Payload
		}
	}
	if len(res.members) != testN || len(postings) != testN {
		t.Fatalf("%d verified members, %d postings; want %d", len(res.members), len(postings), testN)
	}
	// Each member's posting starts with the key every one of its envelopes
	// opens under — the key view its readers hold — and each envelope is
	// found, byte for byte, in the posting behind it.
	for m, i := range res.members {
		who := c.Roles[i-1].Name()
		posting := postings[who]
		var envs [][]byte
		var cols []Envelopes
		for j, kind := range kinds {
			if kind == 'r' {
				cols = append(cols, res.Sealed[j])
				envs = append(envs, res.Sealed[j].envs[m])
				opens(fmt.Sprintf("%s, opening %d", who, j), recipients[j], posting[:pke.PostingKeySize], res.Sealed[j].part, res.Sealed[j].envs[m])
			}
		}
		for k, slot := range tsk.handoff {
			cols = append(cols, slot)
			envs = append(envs, slot.envs[m])
			opens(fmt.Sprintf("%s, hand-off slot %d", who, k), next.Roles[k].SecretKey(), posting[:pke.PostingKeySize], slot.part, slot.envs[m])
		}
		if len(envs) != strings.Count(kinds, "r")+testN {
			t.Fatalf("%s: %d envelopes", who, len(envs))
		}
		for e, env := range envs {
			if !bytes.Contains(posting[pke.PostingKeySize:], env) {
				t.Errorf("%s: envelope %d is not in its posting", who, e)
			}
			if !bytes.Equal(cols[e].keys[m], posting[:pke.PostingKeySize]) {
				t.Errorf("%s: envelope %d's key view is not its posting's header", who, e)
			}
		}
		oneKey(who, posting, envs)
	}
}

// A member writes its posting into one buffer of the step's posting length,
// and on Sim that is exactly what it writes: the posting the board keeps has
// that length, no spare capacity, and needed no reallocation. (The real
// backend's partials and sub-shares are not padded to the nominal widths,
// so there the buffer grows as the encodings need.)
func TestTskPostIsExactlySized(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		f, dealt := newFixtureOn(t, tte.NewSim(512), pke.NewSim(), nil)
		next := f.form(t, "next")
		for _, kinds := range []string{"dddd", "rrrr", "drdrdrdr", ""} {
			open := make([]Opening, len(kinds))
			for j, kind := range kinds {
				open[j].Ct = f.encrypt(t, int64(j))
				if kind == 'r' {
					var err error
					if open[j].Key, _, err = f.PKE.GenerateKey(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, to := range []*yoso.Committee{nil, next} {
				size := postingLen(f.Sizes, open, to)
				post, err := f.tskPost(1, dealt[0], open, testN, testN, to, size)
				if err != nil {
					t.Fatal(err)
				}
				if len(post.buf) != size || cap(post.buf) != size {
					t.Errorf("openings %q, resharing %v: posting of %d bytes has capacity %d, want both %d",
						kinds, to != nil, len(post.buf), cap(post.buf), size)
				}
			}
		}
	})
}

// postingLen is the length of a tsk posting that answers open and, when next
// is non-nil, reshares to next, under z.
func postingLen(z postlen.Sizes, open []Opening, next *yoso.Committee) int {
	var p postlen.Posting
	for _, o := range open {
		if o.Key == nil {
			p.Partials++
		} else {
			p.Sealed++
		}
	}
	if next != nil {
		p.SubShares = next.N()
	}
	return p.Len(z)
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
		})
		if failAt == 0 && (err != nil || len(posts) == 0) {
			t.Fatalf("clean step: %d posts, err %v", len(posts), err)
		}
		if failAt != 0 && !errors.Is(err, boom) {
			t.Fatalf("step with failing member %d: err = %v, want %v", failAt, err, boom)
		}
		for _, role := range c.Roles {
			if !spoken(role) {
				t.Errorf("failAt=%d: %s has not spoken after the step", failAt, role.Name())
			}
		}
	}
}

// TestAuthoritiesKeepProtocolsApart: core and the baseline each attest
// under their own nizk.Authority (core.New and baseline.New draw one
// each), so the proof a role posts for a step label under one run fails
// under the other's for the same label. That is what lets a statement
// bind the bare label.
func TestAuthoritiesKeepProtocolsApart(t *testing.T) {
	core, _ := newFixtureOn(t, tte.NewSim(512), pke.NewSim(), nil)
	base, _ := newFixtureOn(t, tte.NewSim(512), pke.NewSim(), nil)
	sp := Spec{Phase: comm.PhaseOnline, Cat: comm.CatOutput, Label: "output"}
	role := core.form(t, "out").Role(1)
	_, ok, err := Speak(core.Runner, role, sp, func() (CtBundle, error) { return CtBundle{core.encrypt(t, 5)}, nil })
	if err != nil || !ok {
		t.Fatalf("honest speak: ok=%v err=%v", ok, err)
	}
	entries := core.Board.Entries(0)
	proof, err := nizk.ProofFromBytes(entries[len(entries)-1].Payload)
	if err != nil {
		t.Fatal(err)
	}
	statement := base.statement(sp.Label, role.Name())
	if !core.Auth.Verify(statement, proof) {
		t.Fatal("the posted proof fails under its own authority")
	}
	if base.Auth.Verify(statement, proof) {
		t.Error("a proof attested under one run's authority verifies under another's for the same label")
	}
}

// honest returns the 1-based indices of c's protocol-following members
// (Honest and Leaky).
func honest(c *yoso.Committee) []int {
	var out []int
	for i, r := range c.Roles {
		if r.Behavior.FollowsProtocol() {
			out = append(out, i+1)
		}
	}
	return out
}

// spoken reports whether r has spoken: its machine erased the secret key,
// so reading it panics.
func spoken(r *yoso.Role) (erased bool) {
	defer func() { erased = recover() != nil }()
	r.SecretKey()
	return false
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

// beaverCircuit is a circuit with three multiplication gates.
func beaverCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	circ, err := circuit.InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	return circ
}

// beaverA is the drivers' randomness step for circ's Beaver a's alone: the
// committee "a" extracts one a per multiplication gate at m, one block.
func (f *fixture) beaverA(t *testing.T, circ *circuit.Circuit, m int) []tte.Ciphertext {
	t.Helper()
	blocks, err := f.RandomStep(f.form(t, "a"), Spec{Phase: comm.PhaseOffline, Cat: comm.CatLambda, Label: "beaver-a"}, []int{circ.NumMul()}, m)
	if err != nil {
		t.Fatal(err)
	}
	return blocks[0]
}

// At every extraction m the triples hold c = a·b, or c ≡ −a·b when Beaver
// negates its c-parts (core's OffB): m = 1 sums the contributions, m = 2
// leaves the last a and b contributions' second row unused, and m = 3
// extracts all three gates from one position.
func TestBeaverTriples(t *testing.T) {
	for _, m := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			for _, neg := range []bool{false, true} {
				testBeaverTriples(t, m, neg)
			}
		})
	}
}

func testBeaverTriples(t *testing.T, m int, neg bool) {
	f, dealt := newFixture(t)
	circ := beaverCircuit(t)
	triples, err := f.Beaver(f.assign, "b", testN, circ, f.beaverA(t, circ, m), m, neg)
	if err != nil {
		t.Fatal(err)
	}
	dec := f.form(t, "dec")
	tsk, err := f.DealShares(dec, dealt)
	if err != nil {
		t.Fatal(err)
	}
	muls := circ.MulGates()
	if len(triples) != len(muls) {
		t.Fatalf("%d triples for %d multiplication gates", len(triples), len(muls))
	}
	var cts []tte.Ciphertext
	for _, gi := range muls {
		tr := triples[gi]
		cts = append(cts, tr.A, tr.B, tr.C)
	}
	vals, err := f.decryptStep(tsk, dec, Spec{Phase: comm.PhaseOffline, Cat: comm.CatPartial, Label: "open"}, cts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for g, gi := range muls {
		a, b, c := vals[3*g], vals[3*g+1], vals[3*g+2]
		want := a.Mul(b)
		if neg {
			want = want.Neg()
		}
		if c != want {
			t.Errorf("neg %t, triple of gate %d: c = %v, want %v", neg, gi, c, want)
		}
	}
	// Each member of a posts ⌈3/m⌉ a-parts, and each of b as many b-parts
	// and three c-parts.
	per := (len(muls) + m - 1) / m
	want := map[comm.Category]int{comm.CatLambda: per, comm.CatBeaver: per + len(muls)}
	posted := 0
	for _, e := range f.Board.Entries(0) {
		cts, ok := want[e.Category]
		if !ok {
			continue
		}
		posted++
		if len(e.Payload) != cts*f.TPK.CiphertextSize() {
			t.Errorf("%s posted %d bytes, want %d ciphertexts", e.From, len(e.Payload), cts)
		}
	}
	if posted == 0 {
		t.Error("no Beaver postings")
	}
	// A circuit without a multiplication forms no committee.
	b := circuit.NewBuilder()
	b.Output(b.Add(b.Input(0), b.Input(1)), 0)
	linear, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	formed := f.assign.Committees()
	if triples, err := f.Beaver(f.assign, "l", testN, linear, nil, m, neg); err != nil || len(triples) != 0 {
		t.Errorf("linear circuit: %d triples, err %v", len(triples), err)
	}
	if f.assign.Committees() != formed {
		t.Errorf("linear circuit formed %d Beaver committees", f.assign.Committees()-formed)
	}
}

// Both drivers' products of x and y. The baseline's: once ε = x + a and
// δ = y + b are open, the Beaver identity over a gate's triple and right
// input encrypts x·y. Core's: Beaver over the right inputs themselves gives
// e and C ≡ −e·y; once ε = x + e is open, ε·c^y + C encrypts x·y.
func TestBeaverProduct(t *testing.T) {
	f, dealt := newFixture(t)
	circ := beaverCircuit(t)
	triples, err := f.Beaver(f.assign, "b", testN, circ, f.beaverA(t, circ, 2), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	gates := circ.Gates()
	cts := make([]tte.Ciphertext, circ.NumWires())
	vals := make([]int64, circ.NumWires())
	for i, g := range gates {
		if g.Kind == circuit.KindInput {
			vals[g.Out] = int64(10 + i)
			cts[g.Out] = f.encrypt(t, vals[g.Out])
		}
	}
	muls := circ.MulGates()
	var right []tte.Ciphertext
	for _, gi := range muls {
		right = append(right, cts[gates[gi].B])
	}
	products, err := f.Beaver(f.assign, "e", testN, circ, right, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	dec1, dec2 := f.form(t, "dec1"), f.form(t, "dec2")
	tsk, err := f.DealShares(dec1, dealt)
	if err != nil {
		t.Fatal(err)
	}
	// Per gate ε = x + a and δ = y + b, then core's ε = x + e.
	beaverMasks, err := f.Masked(circ, muls, triples, cts, false)
	if err != nil {
		t.Fatal(err)
	}
	productMasks, err := f.Masked(circ, muls, products, cts, true)
	if err != nil {
		t.Fatal(err)
	}
	opened := append(beaverMasks, productMasks...)
	open, err := f.decryptStep(tsk, dec1, Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "masks"}, opened, dec2)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]tte.Ciphertext, 2*len(muls))
	for m, gi := range muls {
		terms, coeffs := triples[gi].Product(open[2*m], open[2*m+1], cts[gates[gi].B])
		if got[m], err = f.TE.Eval(f.TPK, terms, coeffs); err != nil {
			t.Fatal(err)
		}
		eps := FieldCoeff(open[2*len(muls)+m])
		if got[len(muls)+m], err = f.TE.Eval(f.TPK, []tte.Ciphertext{cts[gates[gi].B], products[gi].C}, []*big.Int{eps, big.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	prods, err := f.decryptStep(tsk, dec2, Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "products"}, got, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range prods {
		g := gates[muls[i%len(muls)]]
		if want := field.New(uint64(vals[g.A] * vals[g.B])); v != want {
			t.Errorf("product %d (gate %d): %v, want %v", i, muls[i%len(muls)], v, want)
		}
	}
}

// Every c^c carries a bound computed from public data alone,
// p·Bound(c^a)·Σ_{i∈S} M_ji over the verified b members S and b's row j,
// and not TEval's Σ M_ji·b_i·Bound(c^a) (or Σ M_ji·(p − b_i)·Bound(c^a)),
// which would publish b: two runs with the same corruption pattern and
// different randomness report the same bounds.
func TestBeaverBoundsArePublic(t *testing.T) {
	for _, m := range []int{1, 3} {
		for _, neg := range []bool{false, true} {
			circ := beaverCircuit(t)
			first := map[int]*big.Int{}
			for run := 0; run < 2; run++ {
				f, _ := newFixture(t)
				triples, err := f.Beaver(f.assign, "b", testN, circ, f.beaverA(t, circ, m), m, neg)
				if err != nil {
					t.Fatal(err)
				}
				for _, gi := range circ.MulGates() {
					tr := triples[gi]
					// Bound(c^b) is p·Σ_{i∈S} M_ji: BoundP per verified b
					// member, weighted by its column of b's row.
					want := new(big.Int).Mul(tr.B.Bound(), tr.A.Bound())
					if tr.C.Bound().Cmp(want) != 0 {
						t.Errorf("m %d, neg %t, run %d, gate %d: Bound(c^c) = %v, want p·Bound(c^a)·Σ M_ji = %v", m, neg, run, gi, tr.C.Bound(), want)
					}
					if run == 0 {
						first[gi] = tr.C.Bound()
					} else if tr.C.Bound().Cmp(first[gi]) != 0 {
						t.Errorf("m %d, neg %t, gate %d: Bound(c^c) %v in one run and %v in another", m, neg, gi, first[gi], tr.C.Bound())
					}
				}
			}
		}
	}
}

// A member's random contribution costs a constant number of allocations,
// whatever its length: one read of randomness, one slab each for the
// plaintexts and for the Sim ciphertexts. Wipe zeroes the plaintexts.
func TestEncryptRandomAllocations(t *testing.T) {
	f, _ := newFixture(t)
	for _, count := range []int{1, 64} {
		allocs := testing.AllocsPerRun(50, func() {
			ms, cts, err := f.EncryptRandom(count)
			if err != nil || len(cts) != count || len(ms.Ints) != count {
				t.Fatalf("EncryptRandom(%d): %d ciphertexts, %d plaintexts, %v", count, len(cts), len(ms.Ints), err)
			}
			ms.Wipe()
		})
		// The read's buffer and vector, three plaintext slabs and
		// EncryptMany's six read 11; five objects per value read 5·count + 4.
		if allocs > 16 {
			t.Errorf("EncryptRandom(%d): %.0f allocations, want at most 16", count, allocs)
		}
	}
	ms, _, err := f.EncryptRandom(8)
	if err != nil {
		t.Fatal(err)
	}
	words, vals := ms.words, ms.vals
	ms.Wipe()
	for i, w := range words {
		if w != 0 {
			t.Fatalf("word %d is %#x after Wipe", i, w)
		}
	}
	for i := range vals {
		if vals[i].Sign() != 0 || ms.Ints[i] != nil {
			t.Fatalf("plaintext %d survives Wipe", i)
		}
	}
}

// FieldCoeffs lifts each element to the integer FieldCoeff gives, the
// extremes included.
func TestFieldCoeffsMatchFieldCoeff(t *testing.T) {
	es := []field.Element{field.Zero, field.One, field.New(field.Modulus - 1), field.New(1 << 40)}
	ms := FieldCoeffs(es)
	for i, e := range es {
		if ms.Ints[i].Cmp(FieldCoeff(e)) != 0 {
			t.Errorf("element %v lifts to %v", e, ms.Ints[i])
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
		if _, err := f.tskPost(1, dealt[0], open, testN, testN, next, postingLen(f.Sizes, open, next)); err != nil {
			t.Fatal(err)
		}
	})
	// The constant covers the posting, its offsets, the scratch and the
	// resharing's testN sub-shares.
	if budget := float64(3*m + 16); allocs > budget {
		t.Errorf("tskPost with %d sealed openings: %.0f allocations, budget %.0f", m, allocs, budget)
	}
}

// Extraction is sound when any m′ columns of the Vandermonde matrix are
// invertible mod p: then the m′ extracted values are a bijection of any m′
// honest contributions, whatever the others are, and so uniform. For every
// committee size n ≤ 12 and every m′ ≤ 2k − 1 that some admissible k allows
// (t + 2(k−1) + 1 ≤ n with t ≥ 0), every m′-subset of vandermonde's columns
// has a non-zero determinant in field arithmetic.
func TestVandermondeColumnsInvertible(t *testing.T) {
	for n := 1; n <= 12; n++ {
		posts := make([]Post[CtBundle], n)
		for i := range posts {
			posts[i].Index = i + 1
		}
		maxM := n - (1 - n%2) // the largest odd 2k − 1 ≤ n
		for m := 1; m <= maxM; m++ {
			rows, err := vandermonde(posts, m)
			if err != nil {
				t.Fatal(err)
			}
			for set := 0; set < 1<<n; set++ {
				if bits.OnesCount(uint(set)) != m {
					continue
				}
				var cols []int
				for i := 0; i < n; i++ {
					if set&(1<<i) != 0 {
						cols = append(cols, i)
					}
				}
				a := make([][]field.Element, m)
				for j := range a {
					a[j] = make([]field.Element, m)
					for c, col := range cols {
						a[j][c] = field.FromBig(rows[j][col])
					}
				}
				if determinant(a).IsZero() {
					t.Fatalf("n %d, m′ %d: columns %v are singular mod p", n, m, cols)
				}
			}
		}
	}
	// Fewer verified posts than values per position is refused.
	if _, err := vandermonde(make([]Post[CtBundle], 2), 3); !errors.Is(err, ErrNotEnough) {
		t.Errorf("2 posts for m′ = 3: err = %v, want ErrNotEnough", err)
	}
}

// determinant is Gaussian elimination over the field; it consumes a.
func determinant(a [][]field.Element) field.Element {
	det := field.New(1)
	for c := range a {
		pivot := c
		for pivot < len(a) && a[pivot][c].IsZero() {
			pivot++
		}
		if pivot == len(a) {
			return field.New(0)
		}
		if pivot != c {
			a[c], a[pivot] = a[pivot], a[c]
			det = det.Neg()
		}
		det = det.Mul(a[c][c])
		inv := a[c][c].MustInv()
		for r := c + 1; r < len(a); r++ {
			f := a[r][c].Mul(inv)
			for j := c; j < len(a); j++ {
				a[r][j] = a[r][j].Sub(f.Mul(a[c][j]))
			}
		}
	}
	return det
}

// Extraction at the fail-stop margin. With k = 2 a committee of testN = 7
// and t = 2 tolerates F = n − (t + 2(k−1) + 1) = 2 fail-stops, which with
// the t malicious members leaves 2k − 1 = 3 verified contributions: exactly
// m′ = 3. One RandomStep extracts λ-blocks, as OffR does, and Beaver
// multiplies the last block's λ's by extracted e's, as OffB does;
// C ≡ −e·λ, and every bound stays within its static one: p·Σ_{i≤n} i^{m′−1}
// for an extracted value, that squared for a C. Blocks start at positions of
// their own, so blocks of 2, 4 and 3 values take 1 + 2 + 1 contributions,
// not ⌈9/3⌉. One fail-stop more leaves 2 contributions for 3 values a
// position.
func TestExtractionAtFailStopMargin(t *testing.T) {
	const k, m = 2, 3
	margin := testN - (testT + 2*(k-1) + 1)
	col := new(big.Int) // Σ_{i≤n} i^{m−1}
	for i := int64(1); i <= testN; i++ {
		col.Add(col, big.NewInt(i*i))
	}
	fresh := new(big.Int).Mul(BoundP, col)
	prod := new(big.Int).Mul(fresh, fresh)
	within := func(what string, ct tte.Ciphertext, bound *big.Int) {
		if ct.Bound().Cmp(bound) > 0 {
			t.Errorf("%s: bound %v exceeds the static %v", what, ct.Bound(), bound)
		}
	}
	sp := Spec{Phase: comm.PhaseOffline, Cat: comm.CatLambda, Label: "random"}
	circ := beaverCircuit(t)
	sizes := []int{2, 4, circ.NumMul()}

	f, dealt := newFixtureOn(t, tte.NewSim(512), pke.NewSim(), yoso.NewAdversary(testT, margin, 3))
	blocks, err := f.RandomStep(f.form(t, "r"), sp, sizes, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 || len(blocks[0]) != 2 || len(blocks[1]) != 4 || len(blocks[2]) != 3 {
		t.Fatalf("%d blocks, want 3 of 2, 4 and 3 values", len(blocks))
	}
	for b, vals := range blocks {
		for j, ct := range vals {
			within(fmt.Sprintf("block %d value %d", b, j), ct, fresh)
		}
	}
	posted := 0
	for _, e := range f.Board.Entries(0) {
		if e.Category == comm.CatLambda {
			posted++
			if len(e.Payload) != 4*f.TPK.CiphertextSize() {
				t.Errorf("%s posted %d bytes, want 4 ciphertexts", e.From, len(e.Payload))
			}
		}
	}
	// The malicious members post too, and fail verification.
	if posted != testN-margin || len(f.Excluded) != testT+margin {
		t.Errorf("%d members posted and %d were excluded, want %d and %d", posted, len(f.Excluded), testN-margin, testT+margin)
	}

	triples, err := f.Beaver(f.assign, "b", testN, circ, blocks[2], m, true)
	if err != nil {
		t.Fatal(err)
	}
	dec := f.form(t, "dec")
	tsk, err := f.DealShares(dec, dealt)
	if err != nil {
		t.Fatal(err)
	}
	var cts []tte.Ciphertext
	for _, gi := range circ.MulGates() {
		tr := triples[gi]
		within(fmt.Sprintf("gate %d λ", gi), tr.A, fresh)
		within(fmt.Sprintf("gate %d e", gi), tr.B, fresh)
		within(fmt.Sprintf("gate %d C", gi), tr.C, prod)
		cts = append(cts, tr.A, tr.B, tr.C)
	}
	vals, err := f.decryptStep(tsk, dec, Spec{Phase: comm.PhaseOffline, Cat: comm.CatPartial, Label: "open"}, cts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for g := range circ.MulGates() {
		if lambda, e, c := vals[3*g], vals[3*g+1], vals[3*g+2]; lambda.Mul(e).Neg() != c {
			t.Errorf("gate %d: −%v · %v ≠ %v", g, lambda, e, c)
		}
	}

	past, _ := newFixtureOn(t, tte.NewSim(512), pke.NewSim(), yoso.NewAdversary(testT, margin+1, 3))
	if _, err := past.RandomStep(past.form(t, "r"), sp, sizes, m); !errors.Is(err, ErrNotEnough) {
		t.Errorf("one fail-stop past the margin: err = %v, want ErrNotEnough", err)
	}
}
