package core

import (
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/slotpack"
	"yosompc/internal/telemetry"
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
			steps := stepOpenings(t, params, circ, in)
			// Client 0's three outputs share one opening, client 1's is alone.
			if got, want := steps["output"], [2]int64{2, 4}; got != want {
				t.Errorf("output step reports %v openings/values, want %v", got, want)
			}
		})
	}
	res := runAndCompare(t, simParams(7, 1, 1, nil), circ, in)
	if want := []field.Element{field.New(7), field.New(30), field.New(7)}; !field.EqualVec(res.Outputs[0], want) {
		t.Errorf("client 0 outputs %v, want %v", res.Outputs[0], want)
	}
}

// looseBoundTE declares every fresh ciphertext four times wider than the
// protocol does, so run-time bounds outgrow the static slot widths.
type looseBoundTE struct{ TE }

func (l looseBoundTE) Encrypt(pk tte.PublicKey, m, bound *big.Int) (tte.Ciphertext, error) {
	return l.TE.Encrypt(pk, m, new(big.Int).Lsh(bound, 2))
}

// A ciphertext whose run-time bound exceeds the static width of its slot is
// refused with an error naming the step and the slot — never wrapped into its
// neighbour, never re-planned.
func TestOverBoundCiphertextRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		circ func() (*circuit.Circuit, error)
		step string
	}{
		{"multiplications", func() (*circuit.Circuit, error) { return circuit.InnerProduct(2) }, "offdec-open"},
		{"linear only", func() (*circuit.Circuit, error) {
			b := circuit.NewBuilder()
			b.Output(b.Add(b.Input(0), b.Input(0)), 0)
			return b.Build()
		}, "steps-5-6"},
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
			if msg := err.Error(); !strings.Contains(msg, tc.step+": list 0, group 0") || !strings.Contains(msg, "slot 0 is") {
				t.Errorf("error %q does not name step %q and the slot", msg, tc.step)
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
// the KFF, NoKFF and Robust variants, on Sim and — outside -short — real
// 512-bit threshold Paillier, the outputs equal circuit.Eval. A failure
// prints the one line that reproduces it.
func TestPackedOpeningsProperty(t *testing.T) {
	type variant struct {
		name          string
		n, t, k       int
		mal, fs       int
		noKFF, robust bool
	}
	variants := []variant{
		{name: "honest", n: 7, t: 1, k: 2},
		{name: "k1", n: 5, t: 2, k: 1},
		{name: "adversarial", n: 10, t: 2, k: 2, mal: 2, fs: 2},
		{name: "wide-k", n: 12, t: 2, k: 4, mal: 1, fs: 1},
		{name: "nokff", n: 8, t: 2, k: 2, mal: 1, fs: 1, noKFF: true},
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
				params.NoKFF, params.Robust = v.noKFF, v.robust
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
	if len(want) == 0 || want["steps-5-6"][0] == 0 || want["steps-5-6"][0] == want["steps-5-6"][1] {
		t.Fatalf("real run reports %v: expected packed openings on steps 5-6", want)
	}
	if got := stepOpenings(t, sim, circ, in); !reflect.DeepEqual(got, want) {
		t.Errorf("sim steps report %v, real %v", got, want)
	}
	real.Adversary = yoso.NewAdversary(1, 1, 5)
	if got := stepOpenings(t, real, circ, in); !reflect.DeepEqual(got, want) {
		t.Errorf("adversarial steps report %v, honest %v", got, want)
	}
}

// countingTE counts the threshold operations slot-packing is there to save.
type countingTE struct {
	TE
	partials, combines atomic.Int64
}

func (c *countingTE) PartialDecrypt(pk tte.PublicKey, sh tte.KeyShare, ct tte.Ciphertext) (tte.PartialDec, error) {
	c.partials.Add(1)
	return c.TE.PartialDecrypt(pk, sh, ct)
}

func (c *countingTE) Combine(pk tte.PublicKey, ct tte.Ciphertext, parts []tte.PartialDec) (*big.Int, error) {
	c.combines.Add(1)
	return c.TE.Combine(pk, ct, parts)
}

// countingPKE counts envelope openings.
type countingPKE struct {
	pke.Scheme
	opened atomic.Int64
}

type countingSK struct {
	pke.SecretKey
	opened *atomic.Int64
}

func (s countingSK) Decrypt(env []byte) ([]byte, error) {
	s.opened.Add(1)
	return s.SecretKey.Decrypt(env)
}

func (c *countingPKE) GenerateKey() (pke.PublicKey, pke.SecretKey, error) {
	pub, sk, err := c.Scheme.GenerateKey()
	return pub, countingSK{sk, &c.opened}, err
}

func (c *countingPKE) SecretKeyFromBytes(data []byte) (pke.SecretKey, error) {
	sk, err := c.Scheme.SecretKeyFromBytes(data)
	return countingSK{sk, &c.opened}, err
}

// TestOperationCountsNeverExceedParent counts, per phase, the partial
// decryptions, Combine calls and envelope openings of an honest run on every
// benchmark workload's parameters. Each equals what the planner predicts and
// is at most the closed form of the protocol before slot-packing — one
// opening per value — so neither phase has a mechanism to get slower.
func TestOperationCountsNeverExceedParent(t *testing.T) {
	for _, tc := range []struct {
		name         string
		width, depth int
		n, t, k      int
		bits         int
		long         bool
	}{
		{name: "real2048_wide", width: 2, depth: 1, n: 8, t: 2, k: 2, bits: 2047},
		{name: "real512_deep", width: 4, depth: 6, n: 16, t: 3, k: 4, bits: 511},
		{name: "sim_boardd_n64", width: 128, depth: 2, n: 64, t: 15, k: 8, bits: 2048, long: true},
		{name: "sim_wide_n256", width: 128, depth: 1, n: 256, t: 63, k: 32, bits: 2048, long: true},
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
			type counts struct{ partials, combines, opened int64 }
			read := func() counts { return counts{te.partials.Load(), te.combines.Load(), enc.opened.Load()} }
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
			online := counts{total.partials - offline.partials, total.combines - offline.combines, total.opened - offline.opened}

			var (
				n, q    = int64(tc.n), int64(tc.t + 1)
				muls    = int64(circ.NumMul())
				batches = int64(len(circ.MulBatches(tc.k)))
				inputs  = int64(circ.InputCount(0) + circ.InputCount(1))
				outputs = int64(len(circ.OutputGates(0)))
				kffs    = int64(tc.depth)*n + 2 // every layer role and both input clients
				// A committee recovering its tsk shares from a hand-off opens a
				// quorum of envelopes per member: OffRe in the offline phase;
				// the bridge, OnC1 and OnOut in the online phase.
				handoff = n * q
			)
			parent := map[string]counts{
				"offline": {partials: n * (2*muls + inputs + 3*batches*n), combines: 2 * muls, opened: handoff},
				"online": {partials: n * (kffs + outputs), combines: kffs + inputs + 3*batches*n + outputs,
					opened: 3*handoff + q*(kffs+inputs+3*batches*n+outputs)},
			}
			capacity := slotpack.Capacity(tte.NewSim(tc.bits).MaxPlaintext())
			ls := slotpack.ListsOf(circ, tc.n, tc.t, tc.k)
			groups := func(lists ...[]slotpack.Run) (total int64) {
				for _, l := range lists {
					total += slotpack.Count(l, capacity)
				}
				return total
			}
			dec, ins, layers, outs := groups(ls.EpsDelta), groups(ls.Inputs...), groups(ls.Layers...), groups(ls.Outputs...)
			planned := map[string]counts{
				"offline": {partials: n * (dec + ins + layers*n), combines: dec, opened: handoff},
				"online": {partials: n * (kffs + outs), combines: kffs + ins + layers*n + outs,
					opened: 3*handoff + q*(kffs+ins+layers*n+outs)},
			}
			for phase, got := range map[string]counts{"offline": offline, "online": online} {
				if got != planned[phase] {
					t.Errorf("%s: counted %+v, the plan gives %+v", phase, got, planned[phase])
				}
				p := parent[phase]
				if got.partials > p.partials || got.combines > p.combines || got.opened > p.opened {
					t.Errorf("%s: counted %+v, one opening per value was %+v", phase, got, p)
				}
			}
			t.Logf("offline %+v (was %+v), online %+v (was %+v)", offline, parent["offline"], online, parent["online"])
		})
	}
}
