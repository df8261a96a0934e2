package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/slotpack"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// stepOpenings runs the protocol traced and returns, per tsk step label, the
// openings and values its committee span reports.
func stepOpenings(t *testing.T, params Params, circ *circuit.Circuit, in map[int][]field.Element) map[string][2]int64 {
	t.Helper()
	params.Trace = telemetry.NewTracer()
	runAndCompare(t, params, circ, in)
	out := map[string][2]int64{}
	for _, sp := range params.Trace.Spans() {
		if label, ok := strings.CutPrefix(sp.Name, "committee:"); ok {
			out[label] = [2]int64{sp.Ints["openings"], sp.Ints["values"]}
		}
	}
	return out
}

// A constant wire routed straight to an output has λ = 0 under the canonical
// zero ciphertext, bound 0: it gets a zero-width slot beside the client's
// other output and opens to 0.
func TestConstWireStraightToOutput(t *testing.T) {
	b := circuit.NewBuilder()
	x, y := b.Input(0), b.Input(1)
	seven := b.Const(field.New(7))
	b.Output(seven, 0)
	b.Output(b.Mul(x, y), 0)
	b.Output(seven, 0)
	b.Output(b.Const(field.New(9)), 1) // a group that is one zero-width slot
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {6}, 1: {5}})
	for name, params := range map[string]Params{"sim": simParams(7, 1, 1, nil), "real": realParams(t, 4, 1, 1, nil)} {
		t.Run(name, func(t *testing.T) {
			if name == "real" && testing.Short() {
				t.Skip("real-crypto end-to-end in -short mode")
			}
			proto, err := New(params, circ, nil)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := proto.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			// Client 0's three outputs share one opening, client 1's is alone.
			slots := map[int][]int{}
			for ci, groups := range prep.r.outputOpen {
				client := circ.Clients()[ci]
				for _, g := range groups {
					slots[client] = append(slots[client], len(g.widths))
				}
			}
			if want := map[int][]int{0: {3}, 1: {1}}; !reflect.DeepEqual(slots, want) {
				t.Errorf("OffRe seals output groups of %v slots, want %v", slots, want)
			}
			// The zero-width slots open to 0: the outputs are the circuit's.
			res, err := prep.Execute(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := circ.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Outputs, want) {
				t.Errorf("outputs %v, want %v", res.Outputs, want)
			}
			if want := []field.Element{field.New(7), field.New(30), field.New(7)}; !field.EqualVec(res.Outputs[0], want) {
				t.Errorf("client 0 outputs %v, want %v", res.Outputs[0], want)
			}
		})
	}
}

// looseBoundTE declares every fresh ciphertext four times wider than the
// protocol does, so run-time bounds outgrow the static slot widths.
type looseBoundTE struct{ TE }

func (l looseBoundTE) Encrypt(pk tte.PublicKey, m, bound *big.Int) (tte.Ciphertext, error) {
	return l.TE.Encrypt(pk, m, new(big.Int).Lsh(bound, 2))
}

func (l looseBoundTE) EncryptMany(pk tte.PublicKey, ms []*big.Int, bound *big.Int, workers int) ([]tte.Ciphertext, error) {
	return l.TE.EncryptMany(pk, ms, new(big.Int).Lsh(bound, 2), workers)
}

// A ciphertext whose run-time bound exceeds the static width of its slot is
// refused with an error naming the step, the list and the slot — never
// wrapped into its neighbour, never re-planned. OffDec's list 0 is the ε
// list, empty without a multiplication, and list 1 the first client's input
// λ's.
func TestOverBoundCiphertextRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		circ  func() (*circuit.Circuit, error)
		where string
	}{
		{"multiplications", func() (*circuit.Circuit, error) { return circuit.InnerProduct(2) }, "offdec-open: list 0, group 0"},
		{"linear only", func() (*circuit.Circuit, error) {
			b := circuit.NewBuilder()
			b.Output(b.Add(b.Input(0), b.Input(0)), 0)
			return b.Build()
		}, "offdec-open: list 1, group 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			circ, err := tc.circ()
			if err != nil {
				t.Fatal(err)
			}
			params := simParams(6, 1, 1, nil)
			params.TE = looseBoundTE{params.TE}
			proto, err := New(params, circ, nil)
			if err != nil {
				t.Fatal(err)
			}
			in := map[int][]field.Element{}
			for _, client := range circ.Clients() {
				in[client] = make([]field.Element, circ.InputCount(client))
			}
			_, err = proto.Run(in)
			if !errors.Is(err, slotpack.ErrSlotOverflow) {
				t.Fatalf("err = %v, want ErrSlotOverflow", err)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.where) || !strings.Contains(msg, "slot 0 is") {
				t.Errorf("error %q does not name %q and the slot", msg, tc.where)
			}
		})
	}
}

// propertyInputs derives small reproducible inputs from a seed.
func propertyInputs(circ *circuit.Circuit, seed int64) map[int][]field.Element {
	in := map[int][]field.Element{}
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for _, client := range circ.Clients() {
		vals := make([]field.Element, circ.InputCount(client))
		for i := range vals {
			x = x*6364136223846793005 + 1442695040888963407
			vals[i] = field.New(x >> 20)
		}
		in[client] = vals
	}
	return in
}

// TestPackedOpeningsProperty: for random circuits at the largest size the
// modulus admits and the library circuits, over several (n, t, k), honest and
// with malicious + fail-stop members (fewer contributors, same layout), in
// the proof-filtered and Robust variants, on Sim and — outside -short — real
// 512-bit threshold Paillier, the outputs equal circuit.Eval. A failure
// prints the one line that reproduces it.
func TestPackedOpeningsProperty(t *testing.T) {
	type variant struct {
		name    string
		n, t, k int
		mal, fs int
		robust  bool
	}
	variants := []variant{
		{name: "honest", n: 7, t: 1, k: 2},
		{name: "k1", n: 5, t: 2, k: 1},
		{name: "adversarial", n: 10, t: 2, k: 2, mal: 2, fs: 2},
		{name: "wide-k", n: 12, t: 2, k: 4, mal: 1, fs: 1},
		{name: "robust", n: 12, t: 2, k: 3, mal: 2, fs: 1, robust: true},
	}
	type source struct {
		name  string
		sizes []int // tried in order: the first the modulus admits is run
		build func(size int) (*circuit.Circuit, error)
	}
	sources := []source{
		{"WideMul", []int{6}, func(s int) (*circuit.Circuit, error) { return circuit.WideMul(s, 3) }},
		{"PolyEval", []int{5}, circuit.PolyEval},
		{"Statistics", []int{4}, circuit.Statistics},
	}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sources = append(sources, source{fmt.Sprintf("Random/seed=%d", seed), []int{40, 28, 20, 14, 10, 6},
			func(s int) (*circuit.Circuit, error) { return circuit.Random(5, s, seed) }})
	}
	backends := []string{"sim"}
	if !testing.Short() {
		backends = append(backends, "real")
		sources = append(sources, source{"EqualsIndicator", []int{0},
			func(int) (*circuit.Circuit, error) { return circuit.EqualsIndicator() }})
	}
	for _, backend := range backends {
		for vi, v := range variants {
			for si, src := range sources {
				if backend == "real" && (si+vi)%3 != 0 && src.name != "EqualsIndicator" {
					continue // a third of the grid on real crypto
				}
				if src.name == "EqualsIndicator" && (backend != "sim" || vi > 1) {
					continue // ~120 layers: the small honest committees only
				}
				var adv *yoso.Adversary
				if v.mal+v.fs > 0 {
					adv = yoso.NewAdversary(v.mal, v.fs, int64(100+si))
				}
				params := simParams(v.n, v.t, v.k, adv)
				if backend == "real" {
					params = realParams(t, v.n, v.t, v.k, adv)
				}
				params.Robust = v.robust
				ran := false
				for _, size := range src.sizes {
					repro := fmt.Sprintf("backend=%s variant=%+v circuit=%s size=%d adversary-seed=%d", backend, v, src.name, size, 100+si)
					circ, err := src.build(size)
					if err != nil {
						t.Fatalf("%s: %v", repro, err)
					}
					in := propertyInputs(circ, int64(si))
					want, err := circ.Eval(in)
					if err != nil {
						t.Fatalf("%s: %v", repro, err)
					}
					proto, err := New(params, circ, nil)
					if err != nil {
						t.Fatalf("%s: %v", repro, err)
					}
					res, err := proto.Run(in)
					if errors.Is(err, tte.ErrPlaintextTooBig) {
						continue // deeper than the modulus admits: loud, try smaller
					}
					if err != nil {
						t.Fatalf("%s: %v", repro, err)
					}
					for client, vals := range want {
						if !field.EqualVec(res.Outputs[client], vals) {
							t.Fatalf("%s: client %d outputs %v, want %v", repro, client, res.Outputs[client], vals)
						}
					}
					ran = true
					break
				}
				if !ran {
					t.Errorf("backend=%s variant=%+v circuit=%s: no size fits the modulus", backend, v, src.name)
				}
			}
		}
	}
}

// The layout is a function of public parameters, not of the backend or of
// who contributed: Sim and threshold Paillier at the same capacity, and an
// honest and an adversarial run, report the same openings and values on every
// tsk step.
func TestLayoutIndependentOfBackendAndAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("real-crypto end-to-end in -short mode")
	}
	circ, err := circuit.WideMul(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := propertyInputs(circ, 3)
	const n, tt, k = 7, 1, 2
	// The fixed 512-bit key holds 509 plaintext bits per opening, one fewer
	// than a Sim model of a 512-bit modulus: compare at equal capacity.
	real := realParams(t, n, tt, k, nil)
	sim := simParams(n, tt, k, nil)
	sim.TE = tte.NewSim(511)
	want := stepOpenings(t, real, circ, in)
	if len(want) == 0 || want["step-6"][0] == 0 || want["step-6"][0] == want["step-6"][1] {
		t.Fatalf("real run reports %v: expected packed openings on step 6", want)
	}
	if got := stepOpenings(t, sim, circ, in); !reflect.DeepEqual(got, want) {
		t.Errorf("sim steps report %v, real %v", got, want)
	}
	real.Adversary = yoso.NewAdversary(1, 1, 5)
	if got := stepOpenings(t, real, circ, in); !reflect.DeepEqual(got, want) {
		t.Errorf("adversarial steps report %v, honest %v", got, want)
	}
}

// countingTE counts the threshold operations slot-packing is there to save,
// and the values encrypted and the Eval calls the offline phase spends.
type countingTE struct {
	TE
	partials, combines, encrypted, evals atomic.Int64
}

func (c *countingTE) Encrypt(pk tte.PublicKey, m, bound *big.Int) (tte.Ciphertext, error) {
	c.encrypted.Add(1)
	return c.TE.Encrypt(pk, m, bound)
}

func (c *countingTE) EncryptMany(pk tte.PublicKey, ms []*big.Int, bound *big.Int, workers int) ([]tte.Ciphertext, error) {
	c.encrypted.Add(int64(len(ms)))
	return c.TE.EncryptMany(pk, ms, bound, workers)
}

func (c *countingTE) Eval(pk tte.PublicKey, cts []tte.Ciphertext, coeffs []*big.Int) (tte.Ciphertext, error) {
	c.evals.Add(1)
	return c.TE.Eval(pk, cts, coeffs)
}

func (c *countingTE) PartialDecrypt(pk tte.PublicKey, sh tte.KeyShare, ct tte.Ciphertext) (tte.PartialDec, error) {
	c.partials.Add(1)
	return c.TE.PartialDecrypt(pk, sh, ct)
}

func (c *countingTE) Combine(pk tte.PublicKey, ct tte.Ciphertext, parts []tte.PartialDec) (*big.Int, error) {
	c.combines.Add(1)
	return c.TE.Combine(pk, ct, parts)
}

// countingPKE counts envelope openings, and keeps the id of every Sim key it
// generates so that sealedOn can count the envelopes sealed to them.
type countingPKE struct {
	pke.Scheme
	opened atomic.Int64
	mu     sync.Mutex
	ids    map[uint64]bool
}

type countingSK struct {
	pke.SecretKey
	opened *atomic.Int64
}

func (s countingSK) AppendOpen(dst, key []byte, part int, env []byte) ([]byte, error) {
	s.opened.Add(1)
	return s.SecretKey.AppendOpen(dst, key, part, env)
}

func (c *countingPKE) GenerateKey() (pke.PublicKey, pke.SecretKey, error) {
	pub, sk, err := c.Scheme.GenerateKey()
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	if c.ids == nil {
		c.ids = map[uint64]bool{}
	}
	c.ids[binary.BigEndian.Uint64(pub.Bytes())] = true
	c.mu.Unlock()
	return pub, countingSK{sk, &c.opened}, nil
}

// sealedOn counts, per phase, the envelopes sealed in the postings of the
// dealer and of the tsk-holding committees on b, the setup phase's counted
// as offline. Sealing happens inside package pke, out of a wrapper's reach,
// so the envelopes are counted where they land: such a posting is its
// posting key, then its parts, each either a partial decryption in the
// clear, partialLen bytes, or an envelope. A Sim envelope starts with its
// recipient's key id and its message's length, EnvelopeOverhead bytes of
// header in all, and every recipient's key is one c generated.
func (c *countingPKE) sealedOn(b *transport.Board, partialLen int) map[comm.Phase]int64 {
	out := map[comm.Phase]int64{}
	for _, e := range b.Entries(0) {
		holder, _, _ := strings.Cut(e.From, "/")
		if e.Category == comm.CatProof || !slices.Contains([]string{"setup-dealer", "offDec", "offRe", "onC1"}, holder) {
			continue
		}
		phase := e.Phase
		if phase == comm.PhaseSetup {
			phase = comm.PhaseOffline
		}
		for p := e.Payload[pke.PostingKeySize:]; len(p) > 0; {
			if len(p) >= pke.EnvelopeOverhead && c.ids[binary.BigEndian.Uint64(p)] {
				p = p[pke.EnvelopeOverhead+int(binary.BigEndian.Uint32(p[8:])):]
				out[phase]++
			} else {
				p = p[partialLen:]
			}
		}
	}
	return out
}

func (c *countingPKE) SecretKeyFromBytes(data []byte) (pke.SecretKey, error) {
	sk, err := c.Scheme.SecretKeyFromBytes(data)
	return countingSK{sk, &c.opened}, err
}

// TestOperationCountsNeverExceedParent counts, per phase, the partial
// decryptions, Combine calls, envelope openings, envelopes sealed, values
// encrypted and Eval calls of an honest run on every benchmark workload's
// parameters. Each of the first five equals what the planner predicts and is
// at most the closed form of the protocol before slot-packing and
// extraction — one opening per value, one contribution per random value, a
// Beaver triple per multiplication and two offline tsk hand-offs — and the
// Eval calls are at most those measured with Beaver triples (evals), so
// neither phase has a mechanism to get slower. Prepare counts setup's KFF
// encryptions and the dealer's envelopes with the offline phase's. Which
// layers get KFFs, and so whether OffRe is formed, which layer groups it
// seals and which OnC1 seals, is slotpack's NeedsKFF.
func TestOperationCountsNeverExceedParent(t *testing.T) {
	for _, tc := range []struct {
		name         string
		width, depth int
		n, t, k      int
		bits         int
		long         bool
		evals        int64
		// seals pins the Re-encrypts addressed to layer roles, offline and
		// online: each is partially decrypted and sealed once.
		seals [2]int64
	}{
		{name: "real2048_wide", width: 2, depth: 1, n: 8, t: 2, k: 2, bits: 2047, evals: 82, seals: [2]int64{0, 48}},
		{name: "real512_deep", width: 4, depth: 6, n: 16, t: 3, k: 4, bits: 511, evals: 1135, seals: [2]int64{0, 960}},
		{name: "sim_boardd_n64", width: 128, depth: 2, n: 64, t: 15, k: 8, bits: 2048, long: true, evals: 32256, seals: [2]int64{25600, 6400}},
		{name: "sim_wide_n256", width: 128, depth: 1, n: 256, t: 63, k: 32, bits: 2048, long: true, evals: 40927, seals: [2]int64{0, 49664}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("large committee in -short mode")
			}
			circ, err := circuit.WideMul(tc.width, tc.depth)
			if err != nil {
				t.Fatal(err)
			}
			// The real workloads' keys have one plaintext bit fewer than a Sim
			// model of their modulus; a model one bit shorter has their
			// capacity (509 and 2 045 bits), so the counts are theirs.
			te := &countingTE{TE: tte.NewSim(tc.bits)}
			enc := &countingPKE{Scheme: pke.NewSim()}
			proto, err := New(Params{N: tc.n, T: tc.t, K: tc.k, TE: te, PKE: enc}, circ, nil)
			if err != nil {
				t.Fatal(err)
			}
			in := propertyInputs(circ, 1)
			prep, err := proto.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			type counts struct{ partials, combines, opened, sealed, encrypted, evals int64 }
			read := func() counts {
				return counts{te.partials.Load(), te.combines.Load(), enc.opened.Load(), 0, te.encrypted.Load(), te.evals.Load()}
			}
			offline := read()
			res, err := prep.Execute(in)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := circ.Eval(in)
			if !field.EqualVec(res.Outputs[0], want[0]) {
				t.Fatalf("outputs %v, want %v", res.Outputs[0], want[0])
			}
			total := read()
			online := counts{total.partials - offline.partials, total.combines - offline.combines, total.opened - offline.opened, 0,
				total.encrypted - offline.encrypted, total.evals - offline.evals}
			sealed := enc.sealedOn(proto.Board(), tte.NewSim(tc.bits).PartialSize())
			offline.sealed, online.sealed = sealed[comm.PhaseOffline], sealed[comm.PhaseOnline]

			var (
				n, q    = int64(tc.n), int64(tc.t + 1)
				muls    = int64(circ.NumMul())
				batches = int64(len(circ.MulBatches(tc.k)))
				inputs  = int64(circ.InputCount(0) + circ.InputCount(1))
				outputs = int64(len(circ.OutputGates(0)))
				// One opening per value gave every layer role and each input
				// client a KFF.
				parentKFFs = int64(tc.depth)*n + 2
				// A committee recovering its tsk shares from a hand-off opens a
				// quorum of envelopes per member: OffRe, where it is formed, in
				// the offline phase, OnC1 in the online phase. A hand-off seals
				// an envelope from each member to each next one, the dealer's
				// one to each member of the first holder.
				handoff, handoffSeals, dealt = n * q, n * n, n
			)
			parent := map[string]counts{
				"offline": {partials: n * (2*muls + inputs + 3*batches*n + outputs), combines: 2 * muls, opened: handoff,
					sealed:    dealt + 2*handoffSeals + n*(inputs+3*batches*n+outputs),
					encrypted: int64(tc.depth)*n + n*(inputs+3*int64(tc.t)*batches+3*muls), evals: tc.evals},
				"online": {partials: n * parentKFFs, combines: parentKFFs + inputs + 3*batches*n + outputs,
					opened: handoff + q*(parentKFFs+inputs+3*batches*n+outputs), sealed: n * parentKFFs},
			}
			capacity := slotpack.Capacity(tte.NewSim(tc.bits).MaxPlaintext())
			ls := slotpack.ListsOf(circ, tc.n, tc.t, tc.k, capacity)
			groups := func(lists ...[]slotpack.Run) (total int64) {
				for _, l := range lists {
					total += slotpack.Count(l, capacity)
				}
				return total
			}
			dec, ins, outs := groups(ls.Eps), groups(ls.Inputs...), groups(ls.Outputs...)
			// A layer whose member's shares take more than one group gives
			// each of its roles a KFF, and OffRe, formed only then, seals the
			// groups to it; OnC1 seals every other layer's groups straight to
			// the role keys. OffDec seals the clients' groups. A tsk member
			// answers a layer role only in the role's window, the
			// n − 2(k−1) members the layer's quorum t + 2(k−1) + 1 leaves
			// t + 1 of, so it seals s of every n roles' groups.
			s := int64(tc.n - 2*(tc.k-1))
			var kffs, sealedOff, sealedOn int64
			for l, layer := range ls.Layers {
				if ls.NeedsKFF(l, capacity) {
					kffs += n
					sealedOff += n * groups(layer)
				} else {
					sealedOn += n * groups(layer)
				}
			}
			var offRe int64
			if kffs > 0 {
				offRe = 1
			}
			layers := sealedOff + sealedOn
			if got := [2]int64{s * sealedOff, s * (kffs + sealedOn)}; got != tc.seals {
				t.Errorf("the plan seals %v to layer roles offline and online, want %v", got, tc.seals)
			}
			random, beaver := ls.Contributions()
			planned := map[string]counts{
				"offline": {partials: n*(dec+ins+outs) + s*sealedOff, combines: dec, opened: offRe * handoff,
					sealed:    dealt + (1+offRe)*handoffSeals + n*(ins+outs) + s*sealedOff,
					encrypted: kffs + n*int64(random+beaver), evals: offline.evals},
				"online": {partials: s * (kffs + sealedOn), combines: kffs + ins + layers + outs,
					opened: handoff + q*(kffs+ins+layers+outs), sealed: s * (kffs + sealedOn)},
			}
			for phase, got := range map[string]counts{"offline": offline, "online": online} {
				if got != planned[phase] {
					t.Errorf("%s: counted %+v, the plan gives %+v", phase, got, planned[phase])
				}
				p := parent[phase]
				if got.partials > p.partials || got.combines > p.combines || got.opened > p.opened ||
					got.sealed > p.sealed || got.encrypted > p.encrypted || got.evals > p.evals {
					t.Errorf("%s: counted %+v, one opening per value was %+v", phase, got, p)
				}
			}
			t.Logf("offline %+v (was %+v), online %+v (was %+v)", offline, parent["offline"], online, parent["online"])
		})
	}
}
