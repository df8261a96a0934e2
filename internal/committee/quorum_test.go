package committee

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/paillier"
	"yosompc/internal/pke"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// countingScheme mints secret keys that count the envelopes they open
// (AppendOpen calls, the one opening path): *opened[i] is the count of
// the i-th key minted.
type countingScheme struct {
	pke.Scheme
	opened []*int
}

type countingKey struct {
	pke.SecretKey
	opened *int
}

func (k countingKey) AppendOpen(dst, key []byte, part int, env []byte) ([]byte, error) {
	*k.opened++
	return k.SecretKey.AppendOpen(dst, key, part, env)
}

func (s *countingScheme) GenerateKey() (pke.PublicKey, pke.SecretKey, error) {
	pub, sec, err := s.Scheme.GenerateKey()
	if err != nil {
		return nil, nil, err
	}
	s.opened = append(s.opened, new(int))
	return pub, countingKey{sec, s.opened[len(s.opened)-1]}, nil
}

// spoil returns col with the listed envelopes replaced by ones their
// recipient cannot open — alternately sealed to a stranger's key and cut
// short. col itself, a view of the board, is left alone.
func spoil(t *testing.T, col Envelopes, which ...int) Envelopes {
	t.Helper()
	envs := col.envs
	col.envs = slices.Clone(envs)
	for n, i := range which {
		if n%2 == 1 {
			col.envs[i] = envs[i][:len(envs[i])-1]
			continue
		}
		stranger, _, err := pke.NewSim().GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		posting, err := stranger.Encrypt(make([]byte, len(envs[i])-pke.EnvelopeOverhead))
		if err != nil {
			t.Fatal(err)
		}
		col.envs[i] = posting[pke.PostingKeySize:]
	}
	return col
}

// openEnvelope opens one envelope, sealed under posting key key at part
// part, into a fresh buffer and decodes it: a reader's step without the
// quorum walk or its scratch.
func openEnvelope[T any](r *Runner, sk pke.SecretKey, key []byte, part int, env []byte, from, epoch int, decode decoder[T]) (T, error) {
	data, err := sk.AppendOpen(nil, key, part, env)
	if err != nil {
		var none T
		return none, err
	}
	defer clear(data)
	return decode(r.TPK, from, epoch, data)
}

// subSharesTo decodes sub-shares as member to of the next committee does.
func (f *fixture) subSharesTo(to int) decoder[tte.SubShare] {
	return func(pk tte.PublicKey, from, epoch int, data []byte) (tte.SubShare, error) {
		return f.TE.DecodeSubShare(pk, from, to, epoch, data)
	}
}

// upTo returns 0, 1, …, n-1.
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// A reader pays for a quorum and no more: t+1 opens per CombineSealed
// and per recovered tsk share on an honest committee, one more for every
// envelope it had to skip on the way, and all of them — ending in
// ErrNotEnough — only when fewer than t+1 open.
func TestQuorumDecryptCalls(t *testing.T) {
	scheme := &countingScheme{Scheme: pke.NewSim()}
	f, dealt := newFixtureOn(t, tte.NewSim(512), scheme, nil)
	c, next := f.form(t, "c"), f.form(t, "next")
	nextOpened := scheme.opened[testN : 2*testN]
	pub, recipient, err := scheme.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	opened := scheme.opened[2*testN]

	tsk, err := f.DealShares(c, dealt)
	if err != nil {
		t.Fatal(err)
	}
	ct := f.encrypt(t, 77)
	sp := Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "step"}
	res, err := f.TskStep(tsk, c, sp, []Opening{{Ct: ct, Key: pub}}, next)
	if err != nil {
		t.Fatal(err)
	}
	envs := res.Sealed[0]
	if len(envs.envs) != testN {
		t.Fatalf("honest committee left %d envelopes, want %d", len(envs.envs), testN)
	}

	for skipped := 0; skipped <= testN-testT-1; skipped++ {
		*opened = 0
		v, err := f.CombineSealed(recipient, spoil(t, envs, upTo(skipped)...), ct)
		if err != nil || v.Int64() != 77 {
			t.Fatalf("%d unopenable envelopes first: opened to %v, %v", skipped, v, err)
		}
		if want := testT + 1 + skipped; *opened != want {
			t.Errorf("%d unopenable envelopes first: %d opens, want %d", skipped, *opened, want)
		}
	}
	// Unopenable envelopes behind the quorum are never looked at.
	*opened = 0
	if _, err := f.CombineSealed(recipient, spoil(t, envs, upTo(testN)[testT+1:]...), ct); err != nil {
		t.Fatal(err)
	}
	if *opened != testT+1 {
		t.Errorf("unopenable envelopes behind the quorum: %d opens, want %d", *opened, testT+1)
	}
	// One short of a quorum: every envelope is tried, and the failure is the
	// backend's too-few error under ErrNotEnough.
	*opened = 0
	_, err = f.CombineSealed(recipient, spoil(t, envs, upTo(testN)[testT:]...), ct)
	if !errors.Is(err, ErrNotEnough) || !strings.Contains(err.Error(), tte.ErrTooFewPartials.Error()) {
		t.Errorf("%d openable envelopes: err = %v, want ErrNotEnough around %v", testT, err, tte.ErrTooFewPartials)
	}
	if *opened != testN {
		t.Errorf("%d openable envelopes: %d opens, want all %d", testT, *opened, testN)
	}

	// The same walk recovers tsk shares: member 2 skips one hand-off
	// envelope, member 3 two, everyone else none.
	handoff := slices.Clone(tsk.handoff)
	tsk.handoff[1] = spoil(t, handoff[1], 0)
	tsk.handoff[2] = spoil(t, handoff[2], 0, 1)
	recovered := 0
	f.ShareRecovered = func(comm.Phase) { recovered++ }
	f.Workers = 1
	spoiled := tsk.handoff
	if err := f.recoverShares(tsk, next, sp.Phase); err != nil {
		t.Fatal(err)
	}
	if recovered != testN {
		t.Errorf("%d members recovered a share, want %d", recovered, testN)
	}
	for i, got := range nextOpened {
		want := testT + 1
		if i == 1 || i == 2 {
			want += i
		}
		if *got != want {
			t.Errorf("next/%d: %d opens to recover its share, want %d", i+1, *got, want)
		}
	}
	// A member left with t openable sub-shares stops the step. Recovering
	// consumed the hand-off: put it back, at its epoch.
	tsk.handoff, tsk.epoch = spoiled, 0
	tsk.handoff[4] = spoil(t, handoff[4], upTo(testN)[testT:]...)
	*nextOpened[4] = 0
	_, err = f.TskStep(tsk, next, sp, nil, nil)
	if !errors.Is(err, ErrNotEnough) || !strings.Contains(err.Error(), tte.ErrTooFewPartials.Error()) ||
		!strings.Contains(err.Error(), "next/5") {
		t.Errorf("member with %d openable sub-shares: err = %v, want ErrNotEnough around %v naming next/5", testT, err, tte.ErrTooFewPartials)
	}
	if *nextOpened[4] != testN {
		t.Errorf("member with %d openable sub-shares: %d opens, want all %d", testT, *nextOpened[4], testN)
	}
}

// probeTE counts DecodePartial calls and fails the ones of member bad.
type probeTE struct {
	TE
	decoded atomic.Int64
	bad     int
}

func (p *probeTE) DecodePartial(pk tte.PublicKey, index, epoch int, data []byte) (tte.PartialDec, error) {
	p.decoded.Add(1)
	part, err := p.TE.DecodePartial(pk, index, epoch, data)
	if err == nil && part.Index() == p.bad {
		return nil, errors.New("probe: undecodable")
	}
	return part, err
}

// A Decrypt's partials are public under verified proofs: one inside the
// quorum that does not decode fails the step, naming the opening and the
// member; one behind the quorum is never parsed.
func TestDecryptStepDecodesAQuorum(t *testing.T) {
	const openings = 3
	for _, tc := range []struct {
		bad     int
		wantErr string
	}{
		{bad: 0},
		{bad: testT + 2},
		{bad: testT + 1, wantErr: fmt.Sprintf("open: verified partial 0 of member %d: probe: undecodable", testT+1)},
	} {
		probe := &probeTE{TE: tte.NewSim(512), bad: tc.bad}
		f, dealt := newFixtureOn(t, probe, pke.NewSim(), nil)
		f.Workers = 1
		c := f.form(t, "c")
		tsk, err := f.DealShares(c, dealt)
		if err != nil {
			t.Fatal(err)
		}
		cts := make([]tte.Ciphertext, openings)
		for j := range cts {
			cts[j] = f.encrypt(t, int64(10+j))
		}
		vals, err := f.decryptStep(tsk, c, Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "open"}, cts, nil)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("member %d undecodable: err = %v, want %q", tc.bad, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("member %d undecodable: %v", tc.bad, err)
		}
		for j, v := range vals {
			if v.Uint64() != uint64(10+j) {
				t.Errorf("member %d undecodable: opening %d = %v, want %d", tc.bad, j, v, 10+j)
			}
		}
		if got, want := probe.decoded.Load(), int64(openings*(testT+1)); got != want {
			t.Errorf("member %d undecodable: %d partials decoded, want %d", tc.bad, got, want)
		}
	}
}

// On the real backend the quorum is the set TDec and TKRec keep anyway, so
// every value a reader computes — Re-encrypt plaintexts, Decrypt plaintexts,
// recovered tsk shares — is bit-identical to opening every verified
// contribution and handing all of them to the backend. That holds when the
// lowest-indexed members misbehave and the quorum moves up the committee.
func TestQuorumMatchesOpeningEveryone(t *testing.T) {
	te, err := tte.NewThreshold(paillier.FixedTestKey(0))
	if err != nil {
		t.Fatal(err)
	}
	schedules := []struct {
		name  string
		first []yoso.Behavior // behaviours of members 1, 2, … of both committees
	}{
		{"honest", nil},
		{"first-t-malicious", []yoso.Behavior{yoso.Malicious, yoso.Malicious}},
		{"first-t-crashed", []yoso.Behavior{yoso.FailStop, yoso.FailStop}},
		{"crashed-then-malicious", []yoso.Behavior{yoso.FailStop, yoso.Honest, yoso.Malicious}},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			f, dealt := newFixtureOn(t, te, pke.NewECIES(), nil)
			c, next := f.form(t, "c"), f.form(t, "next")
			for i, b := range sched.first {
				c.Roles[i].Behavior, next.Roles[i].Behavior = b, b
			}
			verified := honest(c)
			wantQuorum := verified[:testT+1]

			// kinds as in TestTskStep; opening j holds 100+j.
			const kinds = "drdrr"
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
			tsk, err := f.DealShares(c, dealt)
			if err != nil {
				t.Fatal(err)
			}
			sp := Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "step"}
			res, err := f.TskStep(tsk, c, sp, open, next)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.members, verified) {
				t.Fatalf("verified members %v, want %v", res.members, verified)
			}

			// everyone combines all the given contributions of opening j.
			everyone := func(j int, parts []tte.PartialDec) *big.Int {
				t.Helper()
				if len(parts) != len(verified) {
					t.Fatalf("opening %d: %d contributions, want %d", j, len(parts), len(verified))
				}
				v, err := f.TE.Combine(f.TPK, open[j].Ct, parts)
				if err != nil {
					t.Fatalf("opening %d: %v", j, err)
				}
				if v.Int64() != int64(100+j) {
					t.Fatalf("opening %d: everyone's partials combine to %v, want %d", j, v, 100+j)
				}
				return v
			}
			for j, kind := range kinds {
				var all, quorate []tte.PartialDec
				var got *big.Int
				if kind == 'r' {
					for m := range res.Sealed[j].envs {
						part, err := openEnvelope(f.Runner, recipients[j], res.Sealed[j].keys[m], res.Sealed[j].part, res.Sealed[j].envs[m], res.Sealed[j].from[m], 0, f.TE.DecodePartial)
						if err != nil {
							t.Fatal(err)
						}
						all = append(all, part)
					}
					quorate = openSealed(f.Runner, recipients[j], res.Sealed[j], f.TE.DecodePartial)
					got, err = f.CombineSealed(recipients[j], res.Sealed[j], open[j].Ct)
				} else {
					for m, view := range res.Partials[j] {
						part, err := f.TE.DecodePartial(f.TPK, res.members[m], 0, view)
						if err != nil {
							t.Fatal(err)
						}
						all = append(all, part)
					}
					if quorate, err = quorum(f.Runner, res.Partials[j], res.members, 0, f.TE.DecodePartial); err == nil {
						got, err = f.TE.Combine(f.TPK, open[j].Ct, quorate)
					}
				}
				if err != nil {
					t.Fatalf("opening %d: %v", j, err)
				}
				var from []int
				for _, part := range quorate {
					from = append(from, part.Index())
				}
				if !reflect.DeepEqual(from, wantQuorum) {
					t.Errorf("opening %d: quorum is members %v, want %v", j, from, wantQuorum)
				}
				if want := everyone(j, all); got.Cmp(want) != 0 {
					t.Errorf("opening %d: the quorum combines to %v, everyone to %v", j, got, want)
				}
			}

			// Recovered tsk shares, against TKRec over every sub-share.
			handoff := tsk.handoff
			if err := f.recoverShares(tsk, next, sp.Phase); err != nil {
				t.Fatal(err)
			}
			recovered := slices.Clone(tsk.shares)
			for i, role := range next.Roles {
				if role.Behavior == yoso.FailStop {
					if recovered[i] != nil {
						t.Errorf("%s crashed but recovered a share", role.Name())
					}
					continue
				}
				var all []tte.SubShare
				for m := range handoff[i].envs {
					sub, err := openEnvelope(f.Runner, role.SecretKey(), handoff[i].keys[m], handoff[i].part, handoff[i].envs[m], handoff[i].from[m], 0, f.subSharesTo(i+1))
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, sub)
				}
				if len(all) != len(verified) {
					t.Fatalf("%s was handed %d sub-shares, want %d", role.Name(), len(all), len(verified))
				}
				sh, err := f.TE.RecoverShare(f.TPK, i+1, all)
				if err != nil {
					t.Fatal(err)
				}
				want, err := f.TE.EncodeKeyShare(sh)
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.TE.EncodeKeyShare(recovered[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: share recovered from a quorum differs from the one recovered from everyone", role.Name())
				}
			}

			// DecryptStep on the recovered shares, against TDec over the
			// partial decryption of every member who will be verified.
			excluded := len(f.Excluded)
			cts := make([]tte.Ciphertext, 0, len(open))
			for _, o := range open {
				cts = append(cts, o.Ct)
			}
			vals, err := f.decryptStep(tsk, next, Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "next"}, cts, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j, ct := range cts {
				var all []tte.PartialDec
				for _, i := range honest(next) {
					part, err := f.TE.PartialDecrypt(f.TPK, recovered[i-1], ct)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, part)
				}
				if want := field.FromBig(everyone(j, all)); vals[j] != want {
					t.Errorf("DecryptStep opening %d = %v, everyone's partials combine to %v", j, vals[j], want)
				}
			}
			if sched.first == nil && len(f.Excluded) != 0 {
				t.Errorf("honest run excluded %v", f.Excluded)
			}
			if got, want := len(f.Excluded)-excluded, testN-len(honest(next)); got != want {
				t.Errorf("next excluded %d members, want %d", got, want)
			}
		})
	}
}

// DecryptStep's workers decode from shared posting views. Whatever the
// worker count, the outputs and the exclusions are the same; run under
// -race this is also the check that the views are only read.
func TestDecryptStepWorkers(t *testing.T) {
	const openings = 12
	type outcome struct {
		vals     []field.Element
		excluded []string
	}
	run := func(workers int) outcome {
		f, dealt := newFixture(t)
		f.Workers = workers
		c, next := f.form(t, "c"), f.form(t, "next")
		tsk, err := f.DealShares(c, dealt)
		if err != nil {
			t.Fatal(err)
		}
		cts := make([]tte.Ciphertext, openings)
		for j := range cts {
			cts[j] = f.encrypt(t, int64(1000+j))
		}
		sp := Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "first"}
		first, err := f.decryptStep(tsk, c, sp, cts, next)
		if err != nil {
			t.Fatal(err)
		}
		// The second committee also recovers its shares on the pool.
		sp.Label = "second"
		second, err := f.decryptStep(tsk, next, sp, cts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{append(first, second...), f.Excluded}
	}
	want := run(1)
	for j, v := range want.vals {
		if v.Uint64() != uint64(1000+j%openings) {
			t.Fatalf("serial: opening %d = %v, want %d", j, v, 1000+j%openings)
		}
	}
	if len(want.excluded) != 4 {
		t.Fatalf("serial: excluded %v, want the two committees' malicious and crashed members", want.excluded)
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: %+v, serial run %+v", workers, got, want)
		}
	}
}

// scratchKey records every buffer its AppendOpen hands back, over its
// whole capacity, so a test can look at a walk's scratch once the walk is
// over, and counts the opens that were handed a scratch still holding a
// byte of an earlier plaintext.
type scratchKey struct {
	pke.SecretKey
	bufs  *[][]byte
	dirty *int
}

func (k scratchKey) AppendOpen(dst, key []byte, part int, env []byte) ([]byte, error) {
	if all := dst[:cap(dst)]; !bytes.Equal(all, make([]byte, len(all))) {
		*k.dirty++
	}
	out, err := k.SecretKey.AppendOpen(dst, key, part, env)
	*k.bufs = append(*k.bufs, out[:cap(out)])
	return out, err
}

// freshWalk is a sealed walk without the scratch: the first t+1 envelopes
// that open, each into a buffer of its own.
func freshWalk[T any](r *Runner, sk pke.SecretKey, col Envelopes, decode decoder[T]) []T {
	var got []T
	for m := range col.envs {
		if v, err := openEnvelope(r, sk, col.keys[m], col.part, col.envs[m], col.from[m], col.epoch, decode); err == nil && len(got) <= r.TPK.T() {
			got = append(got, v)
		}
	}
	return got
}

// scratchWalk is openSealed through a scratchKey, checking the scratch:
// every open is handed one that is all zero, and so is every byte it ever
// held once the walk is over.
func scratchWalk[T any](t *testing.T, what string, r *Runner, sk pke.SecretKey, col Envelopes, decode decoder[T]) []T {
	t.Helper()
	var bufs [][]byte
	dirty := 0
	got := openSealed(r, scratchKey{sk, &bufs, &dirty}, col, decode)
	if dirty != 0 {
		t.Errorf("%s: %d opens were handed a scratch holding an earlier plaintext", what, dirty)
	}
	if len(bufs) < r.TPK.T()+1 {
		t.Fatalf("%s: %d envelopes opened, want at least %d", what, len(bufs), r.TPK.T()+1)
	}
	for i, buf := range bufs {
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Errorf("%s: open %d left %x in the scratch", what, i, buf)
		}
	}
	return got
}

// A sealed walk opens every envelope into one scratch: on both backends
// what it combines and recovers equals a walk that opened each envelope
// into a fresh buffer, with unopenable envelopes on the way; every open is
// handed a wiped scratch, and once the walk is over every byte the scratch
// ever held is zero.
func TestQuorumWalkWipesItsScratch(t *testing.T) {
	real, err := tte.NewThreshold(paillier.FixedTestKey(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		name   string
		te     TE
		scheme pke.Scheme
	}{
		{"sim", tte.NewSim(512), pke.NewSim()},
		{"real", real, pke.NewECIES()},
	} {
		t.Run(b.name, func(t *testing.T) {
			f, dealt := newFixtureOn(t, b.te, b.scheme, nil)
			c, next := f.form(t, "c"), f.form(t, "next")
			pub, recipient, err := f.PKE.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			tsk, err := f.DealShares(c, dealt)
			if err != nil {
				t.Fatal(err)
			}
			ct := f.encrypt(t, 4321)
			res, err := f.TskStep(tsk, c, Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "step"}, []Opening{{Ct: ct, Key: pub}}, next)
			if err != nil {
				t.Fatal(err)
			}

			// Re-encrypt: the first and third envelopes do not open.
			envs := spoil(t, res.Sealed[0], 0, 2)
			want, err := f.TE.Combine(f.TPK, ct, freshWalk(f.Runner, recipient, envs, f.TE.DecodePartial))
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.TE.Combine(f.TPK, ct, scratchWalk(t, "re-encrypt", f.Runner, recipient, envs, f.TE.DecodePartial))
			if err != nil || got.Cmp(want) != 0 || got.Int64() != 4321 {
				t.Errorf("re-encrypt: the scratch walk combines to %v, %v; fresh buffers to %v", got, err, want)
			}

			// TKRec: member j+1 of next skips j mod (n−t) envelopes first.
			for j, role := range next.Roles {
				envs := spoil(t, tsk.handoff[j], upTo(j%(testN-testT))...)
				wantSh, err := f.TE.RecoverShare(f.TPK, j+1, freshWalk(f.Runner, role.SecretKey(), envs, f.subSharesTo(j+1)))
				if err != nil {
					t.Fatal(err)
				}
				gotSh, err := f.TE.RecoverShare(f.TPK, j+1, scratchWalk(t, role.Name(), f.Runner, role.SecretKey(), envs, f.subSharesTo(j+1)))
				if err != nil {
					t.Fatal(err)
				}
				wantEnc, err := f.TE.EncodeKeyShare(wantSh)
				if err != nil {
					t.Fatal(err)
				}
				gotEnc, err := f.TE.EncodeKeyShare(gotSh)
				if err != nil || !bytes.Equal(gotEnc, wantEnc) {
					t.Errorf("%s: the scratch walk recovers a different share (%v)", role.Name(), err)
				}
			}
		})
	}
}

// A sealed walk allocates what it decodes and no more: the quorum slice, one
// scratch for every envelope, and per contribution only the decoded value.
func TestSealedWalkAllocations(t *testing.T) {
	f, dealt := newFixtureOn(t, tte.NewSim(512), pke.NewSim(), nil)
	c := f.form(t, "c")
	pub, recipient, err := f.PKE.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	tsk, err := f.DealShares(c, dealt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.TskStep(tsk, c, Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: "step"}, []Opening{{Ct: f.encrypt(t, 5), Key: pub}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if parts := openSealed(f.Runner, recipient, res.Sealed[0], f.TE.DecodePartial); len(parts) != testT+1 {
			t.Fatalf("walk opened %d, want %d", len(parts), testT+1)
		}
	})
	// A Sim partial decodes into three objects: the message, its big.Int
	// and the integer's words.
	if budget := float64(3*(testT+1) + 2); allocs > budget {
		t.Errorf("sealed walk: %.0f allocations, budget %.0f", allocs, budget)
	}
}
