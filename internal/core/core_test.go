package core

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/paillier"
	"yosompc/internal/pke"
	"yosompc/internal/slotpack"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// simParams returns fast ideal-backend parameters.
func simParams(n, t, k int, adv *yoso.Adversary) Params {
	return Params{
		N:         n,
		T:         t,
		K:         k,
		TE:        tte.NewSim(512),
		PKE:       pke.NewSim(),
		Adversary: adv,
	}
}

// realParams returns real-crypto parameters (threshold Paillier + ECIES).
func realParams(tb testing.TB, n, t, k int, adv *yoso.Adversary) Params {
	tb.Helper()
	te, err := tte.NewThreshold(paillier.FixedTestKey(3))
	if err != nil {
		tb.Fatal(err)
	}
	return Params{
		N:         n,
		T:         t,
		K:         k,
		TE:        te,
		PKE:       pke.NewECIES(),
		Adversary: adv,
	}
}

func inputsOf(vals map[int][]uint64) map[int][]field.Element {
	out := map[int][]field.Element{}
	for c, vs := range vals {
		es := make([]field.Element, len(vs))
		for i, v := range vs {
			es[i] = field.New(v)
		}
		out[c] = es
	}
	return out
}

// runAndCompare executes the protocol and checks outputs against the
// plaintext evaluator.
func runAndCompare(t *testing.T, params Params, circ *circuit.Circuit, in map[int][]field.Element) *Result {
	t.Helper()
	want, err := circ.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(params, circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := proto.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for client, vals := range want {
		if !field.EqualVec(res.Outputs[client], vals) {
			t.Errorf("client %d outputs = %v, want %v", client, res.Outputs[client], vals)
		}
	}
	return res
}

func TestInnerProductSim(t *testing.T) {
	circ, err := circuit.InnerProduct(4)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {5, 6, 7, 8}})
	// ⟨x,y⟩ = 5+12+21+32 = 70
	res := runAndCompare(t, simParams(8, 2, 2, nil), circ, in)
	if res.Outputs[0][0] != field.New(70) {
		t.Errorf("inner product = %v, want 70", res.Outputs[0][0])
	}
}

func TestAdditionOnlyCircuit(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	z := b.Input(1)
	sum := b.Add(b.Add(x, y), z)
	b.Output(sum, 0)
	b.Output(sum, 1)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {10}, 1: {20, 30}})
	res := runAndCompare(t, simParams(5, 1, 1, nil), circ, in)
	if res.Outputs[0][0] != field.New(60) || res.Outputs[1][0] != field.New(60) {
		t.Errorf("outputs = %v", res.Outputs)
	}
}

func TestSubAndConstMul(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	d := b.Sub(x, y)                 // x - y
	s := b.ConstMul(field.New(7), d) // 7(x-y)
	m := b.Mul(s, s)                 // 49(x-y)²
	b.Output(m, 0)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {9}, 1: {4}})
	// 49·25 = 1225
	res := runAndCompare(t, simParams(7, 2, 1, nil), circ, in)
	if res.Outputs[0][0] != field.New(1225) {
		t.Errorf("output = %v, want 1225", res.Outputs[0][0])
	}
}

func TestDeepCircuitSim(t *testing.T) {
	circ, err := circuit.PolyEval(4)
	if err != nil {
		t.Fatal(err)
	}
	// p(x) = 2 + 3x + x² + 4x³ + 2x⁴ at x=3: 2+9+9+108+162 = 290.
	in := inputsOf(map[int][]uint64{0: {2, 3, 1, 4, 2}, 1: {3}})
	res := runAndCompare(t, simParams(8, 2, 2, nil), circ, in)
	if res.Outputs[1][0] != field.New(290) {
		t.Errorf("p(3) = %v, want 290", res.Outputs[1][0])
	}
}

func TestWideCircuitPackingSim(t *testing.T) {
	// Width 8 with k=3 exercises multi-batch layers and tail batches.
	circ, err := circuit.WideMul(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {2, 3, 4, 5}, 1: {6, 7, 2, 3}})
	runAndCompare(t, simParams(12, 2, 3, nil), circ, in)
}

func TestStatisticsSim(t *testing.T) {
	circ, err := circuit.Statistics(3)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {2}, 1: {4}, 2: {6}})
	res := runAndCompare(t, simParams(8, 2, 2, nil), circ, in)
	if res.Outputs[0][0] != field.New(12) || res.Outputs[0][1] != field.New(24) {
		t.Errorf("stats outputs = %v", res.Outputs[0])
	}
}

// OffB multiplies each gate's own λ^β, whatever feeds the gate: a λ^β that
// is a linear combination (Statistics' sum·sum, a difference), a squaring
// gate (α = β), and a wire several gates read, each gate with its own e.
// With t malicious members and the rest of the §5.4 fail-stop margin crashed
// in every committee, the outputs are circuit.Eval's.
func TestProductOperandsSim(t *testing.T) {
	b := circuit.NewBuilder()
	x, y, z := b.Input(0), b.Input(1), b.Input(1)
	b.Output(b.Mul(b.Sub(x, y), b.Add(x, z)), 0) // linear α and β
	b.Output(b.Mul(x, x), 0)                     // squaring
	b.Output(b.Mul(y, x), 1)                     // x read by four gates
	b.Output(b.Mul(z, x), 1)
	shared, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := circuit.Statistics(3)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := circuit.InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	const n, tt, k = 10, 2, 2
	margin := n - (tt + 2*(k-1) + 1)
	for name, circ := range map[string]*circuit.Circuit{"shared": shared, "stats": stats, "inner-product": inner} {
		t.Run(name, func(t *testing.T) {
			proto, err := New(simParams(n, tt, k, yoso.NewAdversary(tt, margin-tt, 61)), circ, nil)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := proto.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			// No two gates share a mask e, not even gates reading one λ^β.
			seen := map[string]int{}
			for _, gi := range circ.MulGates() {
				enc, err := prep.r.p.params.TE.AppendCiphertext(nil, prep.r.products[gi].B)
				if err != nil {
					t.Fatal(err)
				}
				if other, ok := seen[string(enc)]; ok {
					t.Errorf("gates %d and %d share a mask", other, gi)
				}
				seen[string(enc)] = gi
			}
			in := propertyInputs(circ, 7)
			res, err := prep.Execute(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := circ.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			for client, vals := range want {
				if !field.EqualVec(res.Outputs[client], vals) {
					t.Errorf("client %d outputs = %v, want %v", client, res.Outputs[client], vals)
				}
			}
		})
	}
}

func TestRandomCircuitsSim(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		circ, err := circuit.Random(6, 30, seed)
		if err != nil {
			t.Fatal(err)
		}
		in := inputsOf(map[int][]uint64{
			0: {3, 1, 4},
			1: {1, 5, 9},
		})
		runAndCompare(t, simParams(10, 2, 3, nil), circ, in)
	}
}

func TestInnerProductReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real-crypto end-to-end in -short mode")
	}
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {3, 5}, 1: {7, 11}})
	// 21 + 55 = 76
	res := runAndCompare(t, realParams(t, 5, 1, 2, nil), circ, in)
	if res.Outputs[0][0] != field.New(76) {
		t.Errorf("inner product = %v, want 76", res.Outputs[0][0])
	}
}

func TestMaliciousRolesExcludedGOD(t *testing.T) {
	// t=2 malicious roles per committee: outputs must still be correct
	// (guaranteed output delivery) and the cheaters must appear in the
	// excluded list.
	circ, err := circuit.InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3}, 1: {4, 5, 6}})
	adv := yoso.NewAdversary(2, 0, 11)
	res := runAndCompare(t, simParams(10, 2, 2, adv), circ, in)
	if len(res.Excluded) == 0 {
		t.Error("no roles excluded despite malicious adversary")
	}
}

// A malicious member's posting is garbage of an honest posting's length, so
// a run with t malicious members per committee posts exactly the honest
// run's bytes, phase by phase: only the proofs and the contents differ.
func TestMaliciousPostingsHonestSized(t *testing.T) {
	for _, c := range []struct {
		name   string
		build  func() (*circuit.Circuit, error)
		params func(*yoso.Adversary) Params
	}{
		{"wide", func() (*circuit.Circuit, error) { return circuit.WideMul(8, 2) }, func(adv *yoso.Adversary) Params { return simParams(9, 2, 2, adv) }},
		{"statistics", func() (*circuit.Circuit, error) { return circuit.Statistics(4) }, func(adv *yoso.Adversary) Params { return simParams(9, 2, 2, adv) }},
		{"512-bit key", func() (*circuit.Circuit, error) { return circuit.WideMul(8, 2) }, func(adv *yoso.Adversary) Params { return realParams(t, 9, 2, 2, adv) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			circ, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			in := propertyInputs(circ, 1)
			honest := runAndCompare(t, c.params(nil), circ, in)
			malicious := runAndCompare(t, c.params(yoso.NewAdversary(2, 0, 7)), circ, in)
			if len(malicious.Excluded) == 0 {
				t.Fatal("no member excluded: the adversary corrupted no one")
			}
			for _, phase := range []comm.Phase{comm.PhaseSetup, comm.PhaseOffline, comm.PhaseOnline} {
				if got, want := malicious.Report.Phase(phase), honest.Report.Phase(phase); got != want {
					t.Errorf("%s: malicious run posted %d B, honest run %d B", phase, got, want)
				}
			}
		})
	}
}

func TestFailStopRolesToleratedGOD(t *testing.T) {
	// Fail-stop roles beyond the malicious budget: §5.4 — the protocol
	// proceeds when n − t_mal − failstops ≥ t + 2(k−1) + 1.
	circ, err := circuit.InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3}, 1: {4, 5, 6}})
	// n=12, t=2, k=2: threshold = 2+2+1 = 5; drop 2 + 2 malicious → 8 honest ≥ 5.
	adv := yoso.NewAdversary(2, 2, 13)
	res := runAndCompare(t, simParams(12, 2, 2, adv), circ, in)
	if len(res.Excluded) == 0 {
		t.Error("no roles excluded despite fail-stop adversary")
	}
}

func TestMixedAdversaryReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real-crypto end-to-end in -short mode")
	}
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {2, 3}, 1: {4, 5}})
	// n=7, t=1, k=2: threshold = 1+2+1 = 4; 1 malicious + 1 failstop → 5 honest.
	adv := yoso.NewAdversary(1, 1, 17)
	res := runAndCompare(t, realParams(t, 7, 1, 2, adv), circ, in)
	if res.Outputs[0][0] != field.New(23) {
		t.Errorf("inner product = %v, want 23", res.Outputs[0][0])
	}
}

func TestTooManyFailStopsFails(t *testing.T) {
	// With honest < t+1, threshold decryption cannot proceed: the run must
	// error, not return wrong outputs.
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}})
	adv := yoso.NewAdversary(0, 4, 19) // 4 of 5 crash; t=2 needs 3 partials
	proto, err := New(simParams(5, 2, 1, adv), circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Run(in); err == nil {
		t.Error("run succeeded despite losing threshold quorum")
	}
}

// A run at m′ > 1 under attack: real2048_wide's shape extracts
// m′ = 2k − 1 = 3 values per contribution position, and t = 2 malicious plus
// one fail-stop member in every committee — the run's whole margin
// F = n − (t + 2(k−1) + 1) = 3, as the online committees need their
// reconstruction quorum — leave each contributing committee five verified
// members whose indices have gaps. The run outputs circuit.Eval's values,
// every extracted value inside its static slot. A committee at the
// extraction margin itself, 2k − 1 verified posts, is
// committee.TestExtractionAtFailStopMargin.
func TestExtractionWithAdversary(t *testing.T) {
	const n, tt, k = 8, 2, 2
	circ, err := circuit.WideMul(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	te := tte.NewSim(2048)
	if m := slotpack.ListsOf(circ, n, tt, k, slotpack.Capacity(te.MaxPlaintext())).Extract; m != 2*k-1 {
		t.Fatalf("m′ = %d, want 2k − 1 = %d", m, 2*k-1)
	}
	margin := n - (tt + 2*(k-1) + 1)
	params := simParams(n, tt, k, yoso.NewAdversary(tt, margin-tt, 29))
	params.TE = te
	runAndCompare(t, params, circ, propertyInputs(circ, 1))
}

func TestParamsValidation(t *testing.T) {
	cases := []struct {
		name string
		p    Params
	}{
		{"zero n", simParams(0, 0, 1, nil)},
		{"t too big", simParams(4, 4, 1, nil)},
		{"k zero", simParams(4, 1, 0, nil)},
		{"reconstruction impossible", simParams(5, 2, 3, nil)}, // 2+4+1 = 7 > 5
		{"nil TE", Params{N: 4, T: 1, K: 1, PKE: pke.NewSim()}},
		{"nil PKE", Params{N: 4, T: 1, K: 1, TE: tte.NewSim(512)}},
		{"proc over the wire format's 255 bytes", func() Params {
			p := simParams(4, 1, 1, nil)
			p.Proc = strings.Repeat("p", 256)
			return p
		}()},
	}
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.p, circ, nil); !errors.Is(err, ErrBadParams) {
				t.Errorf("invalid params: err = %v, want ErrBadParams", err)
			}
		})
	}
	// The longest process name the trace context can carry is accepted and
	// encodes: the entry a mirror would forward marshals without panicking.
	longest := simParams(4, 1, 1, nil)
	longest.Proc = strings.Repeat("p", 255)
	proto, err := New(longest, circ, nil)
	if err != nil {
		t.Fatalf("255-byte proc rejected: %v", err)
	}
	proto.Board().Post("setup", comm.PhaseSetup, comm.CatCRS, nil)
	if e := proto.Board().Entries(0)[0]; e.Trace.Proc != longest.Proc {
		t.Error("board did not stamp the process name")
	} else if _, err := e.MarshalBinary(); err != nil {
		t.Error(err)
	}
	if _, err := New(simParams(4, 1, 1, nil), nil, nil); err == nil {
		t.Error("nil circuit accepted")
	}
}

func TestWrongInputCount(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(simParams(4, 1, 1, nil), circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Run(inputsOf(map[int][]uint64{0: {1}, 1: {3, 4}})); err == nil {
		t.Error("short input vector accepted")
	}
}

func TestOnlineCommunicationIndependentOfN(t *testing.T) {
	// The headline property (Theorem 1): the per-gate μ-opening stream —
	// the marginal online cost of a multiplication gate — is O(n/k)
	// bytes, so with k ∝ n·ε it is independent of n. The KFF-delivery
	// component is O(n) per role, amortized over the O(n) values each
	// role processes (the paper's wide-circuit assumption); the benchmark
	// harness measures that amortization separately.
	circ, err := circuit.WideMul(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{
		0: {1, 2, 3, 4, 5, 6, 7, 8},
		1: {2, 3, 4, 5, 6, 7, 8, 9},
	})
	gates := circ.NumMul()
	var perGate []float64
	for _, cfg := range []struct{ n, t, k int }{{8, 1, 3}, {16, 2, 6}, {32, 4, 12}} {
		res := runAndCompare(t, simParams(cfg.n, cfg.t, cfg.k, nil), circ, in)
		mu := res.Report.ByCat[comm.PhaseOnline][comm.CatMu]
		perGate = append(perGate, float64(mu)/float64(gates))
	}
	// n/k is constant across the three configs, so per-gate μ bytes must
	// be flat (exact equality up to batch-boundary rounding).
	for i := 1; i < len(perGate); i++ {
		if perGate[i] > perGate[0]*1.5 {
			t.Errorf("per-gate μ-opening bytes grew with n: %v", perGate)
		}
	}
}

// mixedLayers is a circuit whose first multiplication layer takes two
// batches at k = 2 and its second one: at n = 10, t = 2 under a 512-bit key
// a member of layer 1 opens its six shares in two groups, one of layer 2
// its three in one.
func mixedLayers(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder()
	x0, x1, y0, y1 := b.Input(0), b.Input(0), b.Input(1), b.Input(1)
	a, c := b.Mul(x0, y0), b.Mul(x1, y1)
	b.Output(b.Mul(a, c), 0)
	b.Output(b.Mul(x0, y1), 1)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return circ
}

func TestKeyUsageFlowAudit(t *testing.T) {
	// E7: the Fig. 1 key-usage flow. Packed shares are only ever opened
	// under KFF keys where their layer has KFFs and under role keys where
	// it has none; KFF secrets only under role keys; tsk shares only under
	// role keys; input λ's and outputs only under client keys.
	circ := mixedLayers(t)
	const n = 10
	res := runAndCompare(t, simParams(n, 2, 2, nil), circ, propertyInputs(circ, 3))

	forbidden := map[ValueClass][]KeyClass{
		ValPackedShare: {KeyTPK, KeyClient},
		ValWireLambda:  {KeyTPK, KeyRole, KeyKFF},
		ValKFFSecret:   {KeyTPK, KeyKFF, KeyClient},
		ValTskShare:    {KeyKFF, KeyClient, KeyTPK},
		ValOutput:      {KeyKFF, KeyRole, KeyTPK},
	}
	counts := map[ValueClass]int{}
	packed := map[KeyClass]int{}
	for _, e := range res.Audit {
		counts[e.Value]++
		if e.Value == ValPackedShare {
			packed[e.Key]++
		}
		for _, bad := range forbidden[e.Value] {
			if e.Key == bad {
				t.Errorf("audit violation: %v", e)
			}
		}
	}
	for _, val := range []ValueClass{ValPackedShare, ValWireLambda, ValKFFSecret, ValTskShare, ValOutput, ValProductOpen} {
		if counts[val] == 0 {
			t.Errorf("no audit events for %s", val)
		}
	}
	// Every member of layer 1 opens its KFF and its two batches' shares
	// under it; every member of layer 2 its one batch's under its role key.
	if want := (map[KeyClass]int{KeyKFF: 2 * n, KeyRole: n}); !reflect.DeepEqual(packed, want) {
		t.Errorf("packed shares opened per key class %v, want %v", packed, want)
	}
	if counts[ValKFFSecret] != n {
		t.Errorf("%d KFF secrets opened, want %d (layer 1's roles)", counts[ValKFFSecret], n)
	}
}

// A corrupt role posts garbage of its step's public length without running
// the honest computation, so only members that follow the protocol open
// anything: on a robust run with two malicious and one crashed member in
// each committee of 14, 11 members per layer open a KFF secret and their
// four batches' packed shares (28 and 112 in the all-honest run). Every
// member that did not crash still recovers its tsk share, because recovery
// precedes the step: OffRe's and OnC1's 13 each.
func TestCorruptRolesOpenNothing(t *testing.T) {
	circ, err := circuit.WideMul(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := simParams(14, 3, 2, yoso.NewAdversary(2, 1, 7))
	params.Robust = true
	res := runAndCompare(t, params, circ, propertyInputs(circ, 1))
	counts := map[ValueClass]int{}
	for _, e := range res.Audit {
		counts[e.Value]++
	}
	want := map[ValueClass]int{ValKFFSecret: 22, ValPackedShare: 88, ValTskShare: 26}
	for val, n := range want {
		if counts[val] != n {
			t.Errorf("%s opened %d times, want %d", val, counts[val], n)
		}
	}
	if len(res.Audit) != 168 {
		t.Errorf("%d audit events, want 168", len(res.Audit))
	}
}

// TestKFFsOnlyForMultiGroupLayers runs a circuit with one layer whose
// members open their shares in two groups and one whose members open them
// in one, on Sim with malicious and fail-stop members at the §5.4 margin
// and on the 512-bit test key. Setup mints KFFs for the first layer's roles
// only, so OffRe is formed; it seals the first layer's groups and nothing
// else: none of the second layer's, which OnC1 seals straight to the role
// keys, one ciphertext per layer role as for a KFF secret, and none of the
// clients', which OffDec seals beside its ε partials. The outputs are the
// circuit's.
func TestKFFsOnlyForMultiGroupLayers(t *testing.T) {
	circ := mixedLayers(t)
	const n, tt, k = 10, 2, 2
	margin := n - (tt + 2*(k-1) + 1)
	for name, params := range map[string]Params{
		"sim adversarial": simParams(n, tt, k, yoso.NewAdversary(tt, margin-tt, 53)),
		"real 512-bit":    realParams(t, n, tt, k, nil),
	} {
		t.Run(name, func(t *testing.T) {
			params.Trace = telemetry.NewTracer()
			proto, err := New(params, circ, nil)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := proto.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			in := propertyInputs(circ, 5)
			res, err := prep.Execute(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := circ.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			for client, vals := range want {
				if !field.EqualVec(res.Outputs[client], vals) {
					t.Errorf("client %d outputs = %v, want %v", client, res.Outputs[client], vals)
				}
			}

			capacity := slotpack.Capacity(prep.r.rt.TPK.MaxPlaintext())
			ls := slotpack.ListsOf(circ, n, tt, k, capacity)
			if !ls.NeedsKFF(0, capacity) || ls.NeedsKFF(1, capacity) {
				t.Fatalf("layers take %d and %d groups at %d bits, want 2 and 1",
					slotpack.Count(ls.Layers[0], capacity), slotpack.Count(ls.Layers[1], capacity), capacity)
			}
			kffs := 0
			for _, e := range proto.Board().Entries(0) {
				if e.Category == comm.CatKFF && e.Phase == comm.PhaseSetup {
					kffs++
				}
			}
			if kffs != n {
				t.Errorf("setup posted %d KFFs, want %d (layer 1's roles)", kffs, n)
			}
			// OffDec opens the ε groups and seals the input λ's and the early
			// outputs, OffRe seals layer 1's groups (Step 6), and OnC1 a KFF
			// secret per layer-1 role, a group per layer-2 role and the late
			// outputs.
			if names := manifestNames(t, proto.Board()); !slices.Contains(names, "offRe") {
				t.Errorf("committees %v: OffRe was not formed", names)
			}
			var ins, early, late int64
			for c, client := range circ.Clients() {
				ins += slotpack.Count(ls.Inputs[c], capacity)
				if circ.EarlyOutputs()[client] {
					early += slotpack.Count(ls.Outputs[c], capacity)
				} else {
					late += slotpack.Count(ls.Outputs[c], capacity)
				}
			}
			openings := map[string]int64{}
			for _, sp := range params.Trace.Spans() {
				if strings.HasPrefix(sp.Name, "committee:") {
					openings[strings.TrimPrefix(sp.Name, "committee:")] = sp.Ints["openings"]
				}
			}
			if got, want := openings["step-6"], int64(2*n); got != want {
				t.Errorf("OffRe sealed %d groups, want %d: layer 1's alone", got, want)
			}
			if got, want := openings["offdec-open"], slotpack.Count(ls.Eps, capacity)+ins+early; got != want {
				t.Errorf("OffDec opened %d groups, want %d: the ε, input and early output groups", got, want)
			}
			if got, want := openings["future-key-distribution"], 2*n+late; got != want {
				t.Errorf("OnC1 sealed %d groups, want %d: one per layer role", got, want)
			}

			packed := map[KeyClass]int{}
			for _, e := range res.Audit {
				if e.Value == ValPackedShare {
					packed[e.Key]++
				}
			}
			// Layer 1's two batches are opened under KFFs, layer 2's one
			// under role keys, by the members that speak, at most n a layer.
			if len(packed) != 2 || packed[KeyKFF] == 0 || packed[KeyKFF]%2 != 0 || packed[KeyKFF] > 2*n ||
				packed[KeyRole] == 0 || packed[KeyRole] > n {
				t.Errorf("packed shares opened per key class %v, want 2 per layer-1 member under a KFF and 1 per layer-2 member under its role key", packed)
			}
		})
	}
}

// TestNoOffReWithoutKFFLayers runs a circuit none of whose layers takes
// KFFs — WideMul(4, 2) at n = 16, t = 3, k = 4, whose layer members' shares
// fit one 509- or 510-bit group, as on real512_deep — on Sim with t
// malicious and margin − t fail-stop members per committee and on the
// 512-bit test key. No OffRe is formed and no role of it posts, so the run
// takes 5 + depth rounds. OffDec opens the ε groups and seals the input and
// early output groups in one posting per member, its span counting all of
// them; each client opens its input λ's from OffDec's envelopes; and OnC1,
// the next tsk holder, recovers its shares from OffDec's hand-off, online
// and only there. The outputs are the circuit's.
func TestNoOffReWithoutKFFLayers(t *testing.T) {
	circ, err := circuit.WideMul(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n, tt, k = 16, 3, 4
	margin := n - (tt + 2*(k-1) + 1)
	for name, params := range map[string]Params{
		"sim adversarial": simParams(n, tt, k, yoso.NewAdversary(tt, margin-tt, 54)),
		"real 512-bit":    realParams(t, n, tt, k, nil),
	} {
		t.Run(name, func(t *testing.T) {
			params.Trace = telemetry.NewTracer()
			proto, err := New(params, circ, nil)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := proto.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			capacity := slotpack.Capacity(prep.r.rt.TPK.MaxPlaintext())
			ls := slotpack.ListsOf(circ, n, tt, k, capacity)
			for l := range ls.Layers {
				if ls.NeedsKFF(l, capacity) {
					t.Fatalf("layer %d takes %d groups at %d bits, want 1", l+1, slotpack.Count(ls.Layers[l], capacity), capacity)
				}
			}
			// Each client opens its input λ's under a key that logs the
			// envelopes it opens: each is a part of an OffDec posting.
			entries := proto.Board().Entries(0)
			for ci, client := range circ.Clients() {
				sk := &loggingSK{SecretKey: prep.r.clients[client].SecretKey()}
				if _, err := prep.r.openGroups(sk, prep.r.inputOpen[ci]); err != nil {
					t.Fatalf("client %d cannot open its input λ's after Prepare: %v", client, err)
				}
				if len(sk.envs) == 0 {
					t.Fatalf("client %d opened no input envelope", client)
				}
				for i, env := range sk.envs {
					if e, ok := postingOf(entries, env); !ok || !strings.HasPrefix(e.From, "offDec/") {
						t.Errorf("client %d: input envelope %d is a part of %q's posting, want OffDec's", client, i, e.From)
					}
				}
			}

			in := propertyInputs(circ, 7)
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
			if res.Rounds != 5+circ.Depth() {
				t.Errorf("rounds = %d, want 5 + depth = %d", res.Rounds, 5+circ.Depth())
			}
			if names := manifestNames(t, proto.Board()); slices.Contains(names, "offRe") {
				t.Errorf("committees %v: OffRe was formed", names)
			}
			for _, e := range proto.Board().Entries(0) {
				if strings.HasPrefix(e.From, "offRe/") {
					t.Errorf("#%d: %s posted", e.Seq, e.From)
				}
			}

			var dec, ins, early int64 = slotpack.Count(ls.Eps, capacity), 0, 0
			for c, client := range circ.Clients() {
				ins += slotpack.Count(ls.Inputs[c], capacity)
				if circ.EarlyOutputs()[client] {
					early += slotpack.Count(ls.Outputs[c], capacity)
				}
			}
			var opened int64 = -1
			for _, sp := range params.Trace.Spans() {
				if sp.Name == "committee:offdec-open" {
					opened = sp.Ints["openings"]
				}
			}
			if opened != dec+ins+early || ins == 0 || early == 0 {
				t.Errorf("OffDec's span reports %d openings, want %d ε + %d input + %d early output groups", opened, dec, ins, early)
			}

			// Only OnC1 recovers tsk shares, each member that does not
			// crash once: OffDec, holding the dealer's shares, handed them
			// to it.
			crashed := 0
			for _, role := range prep.r.onC1.Roles {
				if role.Behavior == yoso.FailStop {
					crashed++
				}
			}
			recovered := map[comm.Phase]int{}
			for _, e := range res.Audit {
				if e.Value == ValTskShare {
					recovered[e.Phase]++
				}
			}
			if want := map[comm.Phase]int{comm.PhaseOnline: n - crashed}; !reflect.DeepEqual(recovered, want) {
				t.Errorf("tsk shares recovered per phase %v, want %v (OnC1 alone)", recovered, want)
			}
		})
	}
}

func TestExcludedEmptyWhenHonest(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}})
	res := runAndCompare(t, simParams(6, 1, 2, nil), circ, in)
	if len(res.Excluded) != 0 {
		t.Errorf("honest run excluded %v", res.Excluded)
	}
}

func TestReportPhasesPopulated(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}})
	res := runAndCompare(t, simParams(6, 1, 2, nil), circ, in)
	for _, phase := range []comm.Phase{comm.PhaseSetup, comm.PhaseOffline, comm.PhaseOnline} {
		if res.Report.ByPhase[phase] == 0 {
			t.Errorf("phase %s has zero bytes", phase)
		}
	}
	if res.Report.Postings == 0 {
		t.Error("no postings recorded")
	}
}

// linearCircuit is two inputs, their sum and an output: a circuit without a
// multiplication.
func linearCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder()
	b.Output(b.Add(b.Input(0), b.Input(1)), 0)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return circ
}

func TestRoundsAccounting(t *testing.T) {
	// The YOSO round structure: OffR, OffB and OffDec offline, OffRe where
	// some layer takes KFFs, one client round, OnC1 (formed offline,
	// speaking after the client round) and one committee per multiplication
	// layer — 5 + depth sequential broadcast rounds without KFFs and 6 +
	// depth with them, whether OffDec sealed every output λ (PolyEval's
	// output is a product) or OnC1 seals some after the inputs (every
	// client of Statistics receives Σxᵢ). Under a 512-bit key PolyEval's
	// layer members' shares fit one group at n = 8; Statistics' take more,
	// as do those of mixedLayers' first layer at n = 10
	// (TestKFFsOnlyForMultiGroupLayers).
	poly, err := circuit.PolyEval(3) // depth 3
	if err != nil {
		t.Fatal(err)
	}
	stats, err := circuit.Statistics(4) // depth 1
	if err != nil {
		t.Fatal(err)
	}
	mixed := mixedLayers(t)
	for _, tc := range []struct {
		name        string
		circ        *circuit.Circuit
		n           int
		in          map[int][]field.Element
		depth, want int
	}{
		{"poly-eval", poly, 8, inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {2}}), 3, 5 + 3},
		{"statistics", stats, 8, inputsOf(map[int][]uint64{0: {3}, 1: {4}, 2: {5}, 3: {6}}), 1, 6 + 1},
		{"mixed layers", mixed, 10, propertyInputs(mixed, 2), 2, 6 + 2},
	} {
		res := runAndCompare(t, simParams(tc.n, 2, 2, nil), tc.circ, tc.in)
		if res.Rounds != tc.want {
			t.Errorf("%s: rounds = %d, want %d for depth %d", tc.name, res.Rounds, tc.want, tc.depth)
		}
	}

	// Without a multiplication there is no Beaver step: OffB is never
	// formed, and no layer takes KFFs. The output x₀ + x₁ may not reach
	// client 0 before client 1's input is posted, so OnC1 seals it after
	// the client round: OffR, OffDec, the client round and OnC1 make 4
	// rounds, and the offline phase publishes 3·n role keys, OnC1's among
	// them.
	const n = 8
	res := runAndCompare(t, simParams(n, 2, 2, nil), linearCircuit(t), inputsOf(map[int][]uint64{0: {3}, 1: {4}}))
	if res.Rounds != 4 {
		t.Errorf("linear circuit: rounds = %d, want 4", res.Rounds)
	}
	if got, want := res.Report.ByCat[comm.PhaseOffline][comm.CatRoleKeys], int64(3*n*pke.PublicKeySize); got != want {
		t.Errorf("linear circuit: %d offline role-key bytes, want %d (3 committees of %d)", got, want, n)
	}
}

// The schedule, read off the board: the committee manifests a run posts name
// its committees in the order they were formed, and Rounds is one per
// manifest plus the client round. OffRe is formed only where some layer
// takes KFFs (mixedLayers' first), and OffDec hands tsk straight to OnC1
// elsewhere. A linear circuit forms no OffB, and its output, x₀ + x₁ to
// client 0, which OnC1 seals after the inputs, needs no committee of its
// own.
func TestScheduleOnTheBoard(t *testing.T) {
	poly, err := circuit.PolyEval(3)
	if err != nil {
		t.Fatal(err)
	}
	mixed := mixedLayers(t)
	for _, tc := range []struct {
		name string
		circ *circuit.Circuit
		n    int
		in   map[int][]field.Element
		want []string
	}{
		{"depth 3", poly, 8, inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {2}}),
			[]string{"offR", "offB", "offDec", "onC1", "on-layer1", "on-layer2", "on-layer3"}},
		{"mixed layers", mixed, 10, propertyInputs(mixed, 2),
			[]string{"offR", "offB", "offDec", "offRe", "onC1", "on-layer1", "on-layer2"}},
		{"linear", linearCircuit(t), 8, inputsOf(map[int][]uint64{0: {3}, 1: {4}}),
			[]string{"offR", "offDec", "onC1"}},
	} {
		proto, err := New(simParams(tc.n, 2, 2, nil), tc.circ, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := proto.Run(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		got := manifestNames(t, proto.Board())
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: committees %v, want %v", tc.name, got, tc.want)
		}
		if res.Rounds != len(got)+1 {
			t.Errorf("%s: rounds = %d for %d manifests, want one more", tc.name, res.Rounds, len(got))
		}
	}
}

// manifestNames returns the committees of the manifests on b, in posting
// order.
func manifestNames(t *testing.T, b *transport.Board) []string {
	t.Helper()
	var names []string
	for _, e := range b.Entries(0) {
		if e.Category != comm.CatManifest {
			continue
		}
		var m transport.Manifest
		if err := m.UnmarshalBinary(e.Payload); err != nil {
			t.Fatal(err)
		}
		names = append(names, m.Committee)
	}
	return names
}

// A Result is its run's: two runs on one Protocol report the same bytes and
// the same audit trace, not the Protocol's running totals.
func TestRunsReportTheirOwnBytes(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}})
	proto, err := New(simParams(6, 1, 1, nil), circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	var prepared []int64
	for run := 1; run <= 2; run++ {
		prep, err := proto.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		prepared = append(prepared, prep.OfflineReport().Total)
		res, err := prep.Execute(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Total != 53595 || len(res.Audit) != 37 {
			t.Errorf("run %d: %d bytes and %d audit events, want 53595 and 37", run, res.Report.Total, len(res.Audit))
		}
	}
	if prepared[0] != prepared[1] {
		t.Errorf("OfflineReport after each Prepare: %v bytes, want equal", prepared)
	}
	if got := proto.Board().Report().Total; got != 2*53595 {
		t.Errorf("the board holds %d bytes after two runs, want %d", got, 2*53595)
	}
}

func TestDeepCircuitReal(t *testing.T) {
	// A depth-3 circuit on the real backend at a 512-bit key: every
	// multiplication output starts again from a fresh bound, so depth
	// costs no plaintext headroom (slotpack's
	// TestWidestSlotIndependentOfDepth).
	if testing.Short() {
		t.Skip("real crypto in -short mode")
	}
	te, err := tte.NewThreshold(paillier.FixedTestKey(3))
	if err != nil {
		t.Fatal(err)
	}
	params := Params{N: 5, T: 1, K: 1, TE: te, PKE: pke.NewECIES()}
	circ, err := circuit.PolyEval(3)
	if err != nil {
		t.Fatal(err)
	}
	// p(x) = 1 + 2x + 3x² + 4x³ at x = 5: 1+10+75+500 = 586.
	in := inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {5}})
	res := runAndCompare(t, params, circ, in)
	if res.Outputs[1][0] != field.New(586) {
		t.Errorf("p(5) = %v, want 586", res.Outputs[1][0])
	}
}

func TestOutputOnlyClient(t *testing.T) {
	// Client 2 contributes no inputs but receives the product — it must
	// get no KFF yet still receive outputs under its long-term key.
	b := circuit.NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	p := b.Mul(x, y)
	b.Output(p, 2)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {6}, 1: {7}})
	res := runAndCompare(t, simParams(6, 1, 1, nil), circ, in)
	if res.Outputs[2][0] != field.New(42) {
		t.Errorf("output-only client got %v, want 42", res.Outputs[2][0])
	}
}

func TestEndToEndProperty(t *testing.T) {
	// Property: for random circuits, random inputs and random admissible
	// adversaries, the protocol output equals the plaintext evaluation.
	if testing.Short() {
		t.Skip("property sweep in -short mode")
	}
	for seed := int64(100); seed < 112; seed++ {
		circ, err := circuit.Random(4, 25, seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := seed
		randVal := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return uint64(rng>>33) % 1000
		}
		in := map[int][]field.Element{}
		for _, client := range circ.Clients() {
			vals := make([]field.Element, circ.InputCount(client))
			for i := range vals {
				vals[i] = field.New(randVal())
			}
			in[client] = vals
		}
		// n=10, t=2, k=2: threshold 2+2+1=5; adversary budget up to
		// 2 malicious + 3 fail-stops keeps 5 honest.
		mal := int(randVal() % 3)
		fs := int(randVal() % 3)
		var adv *yoso.Adversary
		if mal+fs > 0 {
			adv = yoso.NewAdversary(mal, fs, seed)
		}
		runAndCompare(t, simParams(10, 2, 2, adv), circ, in)
	}
}

func TestRobustModeCorrectsLies(t *testing.T) {
	// IT-GOD: μ shares carry no proofs; t malicious roles post zeros of the
	// honest length, which decode as μ-shares of 0, lies; Berlekamp–Welch
	// decodes the truth.
	circ, err := circuit.InnerProduct(4)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {5, 6, 7, 8}})
	// n=14, t=3, k=2: robust needs 3·3 + 2 + 1 = 12 ≤ 14.
	params := simParams(14, 3, 2, yoso.NewAdversary(3, 0, 41))
	params.Robust = true
	res := runAndCompare(t, params, circ, in)
	if res.Outputs[0][0] != field.New(70) {
		t.Errorf("robust inner product = %v, want 70", res.Outputs[0][0])
	}
}

func TestRobustModeWithFailStops(t *testing.T) {
	circ, err := circuit.InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3}, 1: {4, 5, 6}})
	// n=16, t=3, k=2: decoding needs 3+2·3+... shares: degree t+2(k−1)=5,
	// need 5+2·3+1=12 posted; with 2 malicious + 2 crashed → 14 posted ≥ 12.
	params := simParams(16, 3, 2, yoso.NewAdversary(2, 2, 43))
	params.Robust = true
	runAndCompare(t, params, circ, in)
}

func TestRobustModeValidation(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	// 3·3 + 2(2−1) + 1 = 12 > 10: rejected.
	params := simParams(10, 3, 2, nil)
	params.Robust = true
	if _, err := New(params, circ, nil); err == nil {
		t.Error("robust params below decoding threshold accepted")
	}
}

func TestRobustModeSavesLayerProofs(t *testing.T) {
	// Robust μ layers post no proofs; the proof-based run posts n per layer.
	circ, err := circuit.WideMul(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {5, 6, 7, 8}})
	base := runAndCompare(t, simParams(14, 3, 2, nil), circ, in)
	params := simParams(14, 3, 2, nil)
	params.Robust = true
	robust := runAndCompare(t, params, circ, in)
	baseProofs := base.Report.ByCat[comm.PhaseOnline][comm.CatProof]
	robustProofs := robust.Report.ByCat[comm.PhaseOnline][comm.CatProof]
	// Two layers × 14 roles × 192 B saved.
	if baseProofs-robustProofs != 2*14*192 {
		t.Errorf("proof savings = %d, want %d", baseProofs-robustProofs, 2*14*192)
	}
}

func TestPrepareExecuteSplit(t *testing.T) {
	circ, err := circuit.InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(simParams(8, 2, 2, nil), circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := proto.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	offline := prepared.OfflineReport()
	if offline.Phase(comm.PhaseOnline) != 0 {
		t.Error("online bytes before Execute")
	}
	if offline.Phase(comm.PhaseOffline) == 0 {
		t.Error("no offline bytes after Prepare")
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3}, 1: {4, 5, 6}})
	res, err := prepared.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0][0] != field.New(32) {
		t.Errorf("output = %v, want 32", res.Outputs[0][0])
	}
	// The correlated randomness is one-time: reuse must be refused.
	if _, err := prepared.Execute(in); err == nil {
		t.Error("second Execute on the same preprocessing accepted")
	}
}

// Prepare is the whole offline phase: it posts nothing under the online
// phase, and OnC1's manifest and role keys are among its postings, so OffDec
// hands tsk over before any input exists. Each client can open its input
// and output λ's from what Prepare left, with its setup key alone; OffDec's
// postings all precede the first client input; μ plus those input λ's are
// the inputs, and Execute's outputs are μ plus exactly those output λ's.
// Keys-for-future go only to the roles of the layers whose shares take more
// than one group (slotpack's NeedsKFF): setup mints n per such layer, and
// PolyEval at n = 8 has none. Every other layer's groups are packed in
// Prepare and sealed by no one before OnC1, which opens one ciphertext per
// layer role either way. With no layer taking KFFs no OffRe is formed, and
// tsk is recovered from a hand-off by OnC1 alone, online.
func TestPrepareIsOfflineAndOutputsSealedBeforeInputs(t *testing.T) {
	circ, err := circuit.PolyEval(3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	params := simParams(n, 2, 2, nil)
	params.Trace = telemetry.NewTracer()
	proto, err := New(params, circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := proto.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	layerRoles := circ.Depth() * n
	onC1Keys := -1 // role keys still to see after OnC1's manifest
	kffs := 0
	for _, e := range proto.Board().Entries(0) {
		if e.Phase == comm.PhaseOnline {
			t.Fatalf("Prepare posted #%d from %s under the online phase", e.Seq, e.From)
		}
		switch {
		case e.Category == comm.CatKFF && e.Phase == comm.PhaseSetup:
			kffs++
		case e.Category == comm.CatManifest:
			var m transport.Manifest
			if err := m.UnmarshalBinary(e.Payload); err != nil {
				t.Fatal(err)
			}
			if m.Committee == "onC1" {
				onC1Keys = n
			}
		case e.Category == comm.CatRoleKeys && onC1Keys > 0:
			onC1Keys--
		}
	}
	if onC1Keys != 0 {
		t.Fatalf("Prepare's postings lack OnC1's manifest or %d of its role keys", onC1Keys)
	}
	capacity := slotpack.Capacity(prep.r.rt.TPK.MaxPlaintext())
	wantKFFs := 0
	for l, groups := range prep.r.layerOpen {
		if prep.r.lists.NeedsKFF(l, capacity) {
			wantKFFs += n
			continue
		}
		for i, g := range groups {
			if len(g) != 1 || g[0].ct == nil || g[0].envs.Size() != 0 {
				t.Errorf("layer %d role %d: Prepare left %d groups, want one, packed and not yet sealed", l+1, i+1, len(g))
			}
		}
	}
	if kffs != wantKFFs {
		t.Errorf("setup posted %d KFFs, want %d", kffs, wantKFFs)
	}
	masks := map[int][]field.Element{}
	for ci, client := range circ.Clients() {
		if circ.InputCount(client) == 0 {
			continue
		}
		if masks[client], err = prep.r.openGroups(prep.r.clients[client].SecretKey(), prep.r.inputOpen[ci]); err != nil {
			t.Fatalf("client %d cannot open its input λ's with its setup key after Prepare: %v", client, err)
		}
	}
	sealed := map[int][]field.Element{}
	for ci, client := range circ.Clients() {
		if len(circ.OutputGates(client)) == 0 {
			continue
		}
		if sealed[client], err = prep.r.openGroups(prep.r.clients[client].SecretKey(), prep.r.outputOpen[ci]); err != nil {
			t.Fatalf("client %d cannot open its output λ's after Prepare: %v", client, err)
		}
	}
	if len(sealed) == 0 {
		t.Fatal("the circuit has no output")
	}

	in := inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {2}})
	res, err := prep.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	firstInput, offDec := -1, 0
	for _, e := range proto.Board().Entries(0) {
		if e.Category == comm.CatInput && firstInput < 0 {
			firstInput = e.Seq
		}
		if e.Category == comm.CatPartial && strings.HasPrefix(e.From, "offDec/") && firstInput < 0 {
			offDec++
		}
	}
	if firstInput < 0 || offDec != n {
		t.Fatalf("first input at #%d after %d OffDec postings, want one after all %d", firstInput, offDec, n)
	}
	gates := circ.Gates()
	for client, lambdas := range masks {
		for j, gi := range circ.InputGates(client) {
			if got := prep.r.mu[gates[gi].Out].Add(lambdas[j]); got != in[client][j] {
				t.Errorf("client %d input %d: μ + the λ opened after Prepare = %v, want %v", client, j, got, in[client][j])
			}
		}
	}
	onC1Openings := int64(-1)
	for _, sp := range params.Trace.Spans() {
		if sp.Name == "committee:future-key-distribution" {
			onC1Openings = sp.Ints["openings"]
		}
	}
	if onC1Openings != int64(layerRoles) {
		t.Errorf("OnC1's span reports %d openings, want one per layer role, %d", onC1Openings, layerRoles)
	}
	for client, lambdas := range sealed {
		for o, gi := range circ.OutputGates(client) {
			if want := prep.r.mu[gates[gi].A].Add(lambdas[o]); res.Outputs[client][o] != want {
				t.Errorf("client %d output %d = %v, want μ + the λ sealed in Prepare = %v", client, o, res.Outputs[client][o], want)
			}
		}
	}

	recovered := map[comm.Phase]int{}
	for _, e := range res.Audit {
		if e.Value == ValTskShare {
			recovered[e.Phase]++
		}
	}
	if want := map[comm.Phase]int{comm.PhaseOnline: n}; !reflect.DeepEqual(recovered, want) {
		t.Errorf("tsk shares recovered per phase %v, want %v (OnC1 alone)", recovered, want)
	}
}

// An output that is not early (circuit.EarlyOutputs) reaches its client
// only after the inputs are posted: OnC1 seals it once the input round is
// over, while OffDec seals the early outputs in Prepare, and no output
// committee is formed. Client 0 receives x₀·x₁, client 1 receives x₀ + x₁,
// from which its λ would hand client 1 the mask of x₀ before the input
// round.
func TestLateOutputsSealedAfterInputs(t *testing.T) {
	b := circuit.NewBuilder()
	x0, x1 := b.Input(0), b.Input(1)
	b.Output(b.Mul(x0, x1), 0)
	b.Output(b.Add(x0, x1), 1)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	proto, err := New(simParams(n, 2, 2, nil), circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := proto.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.r.outputOpen[0]) == 0 || len(prep.r.outputOpen[1]) != 0 {
		t.Fatalf("Prepare sealed output groups %d to client 0 and %d to client 1, want some and none",
			len(prep.r.outputOpen[0]), len(prep.r.outputOpen[1]))
	}
	in := inputsOf(map[int][]uint64{0: {3}, 1: {4}})
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

	// Client 1 opens its output groups again under a key that logs every
	// envelope it opens: each is a part of an OnC1 posting made after the
	// last input.
	entries := proto.Board().Entries(0)
	lastInput := -1
	for _, e := range entries {
		if e.Category == comm.CatInput {
			lastInput = e.Seq
		}
	}
	sk := &loggingSK{SecretKey: prep.r.clients[1].SecretKey()}
	if _, err := prep.r.openGroups(sk, prep.r.outputOpen[1]); err != nil {
		t.Fatal(err)
	}
	if len(sk.envs) == 0 {
		t.Fatal("client 1 opened no output envelope")
	}
	for i, env := range sk.envs {
		e, ok := postingOf(entries, env)
		switch {
		case !ok:
			t.Errorf("envelope %d is not a part of any posting", i)
		case !strings.HasPrefix(e.From, "onC1/") || e.Seq <= lastInput:
			t.Errorf("envelope %d is a part of %s's posting #%d, want OnC1's after the last input #%d", i, e.From, e.Seq, lastInput)
		}
	}
	if names := manifestNames(t, proto.Board()); slices.Contains(names, "onOut") {
		t.Errorf("committees %v: an output committee was formed", names)
	}
	recovered := map[comm.Phase]int{}
	for _, e := range res.Audit {
		if e.Value == ValTskShare {
			recovered[e.Phase]++
		}
	}
	if want := map[comm.Phase]int{comm.PhaseOnline: n}; !reflect.DeepEqual(recovered, want) {
		t.Errorf("tsk shares recovered per phase %v, want %v (OnC1 alone: no layer takes KFFs)", recovered, want)
	}
}

// loggingSK records the envelopes its holder opens.
type loggingSK struct {
	pke.SecretKey
	envs [][]byte
}

func (k *loggingSK) AppendOpen(dst, key []byte, part int, env []byte) ([]byte, error) {
	k.envs = append(k.envs, env)
	return k.SecretKey.AppendOpen(dst, key, part, env)
}

// postingOf returns the board entry whose payload env is a view of.
func postingOf(entries []transport.Entry, env []byte) (transport.Entry, bool) {
	for _, e := range entries {
		for off := 0; off+len(env) <= len(e.Payload); off++ {
			if &e.Payload[off] == &env[0] {
				return e, true
			}
		}
	}
	return transport.Entry{}, false
}

func TestExecuteValidatesInputs(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(simParams(6, 1, 1, nil), circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := proto.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prepared.Execute(inputsOf(map[int][]uint64{0: {1}, 1: {2, 3}})); !errors.Is(err, ErrWrongInputs) {
		t.Errorf("short inputs to Execute: err = %v, want ErrWrongInputs", err)
	}
	if _, err := proto.Run(inputsOf(map[int][]uint64{0: {1, 2}})); !errors.Is(err, ErrWrongInputs) {
		t.Errorf("missing client to Run: err = %v, want ErrWrongInputs", err)
	}
}

// TestExecuteWrongInputsKeepsPreprocessing pins that a refused Execute
// consumes nothing: the corrected call runs on the same preprocessing and
// matches the plaintext evaluator.
func TestExecuteWrongInputsKeepsPreprocessing(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(simParams(6, 1, 1, nil), circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := proto.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prepared.Execute(inputsOf(map[int][]uint64{0: {1, 2, 3}, 1: {4, 5}})); !errors.Is(err, ErrWrongInputs) {
		t.Fatalf("long inputs: err = %v, want ErrWrongInputs", err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2}, 1: {4, 5}})
	want, err := circ.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prepared.Execute(in)
	if err != nil {
		t.Fatalf("corrected Execute after a refused one: %v", err)
	}
	if !field.EqualVec(res.Outputs[0], want[0]) {
		t.Errorf("outputs = %v, want %v", res.Outputs[0], want[0])
	}
	if _, err := prepared.Execute(in); !errors.Is(err, ErrAlreadyExecuted) {
		t.Errorf("reuse: err = %v, want ErrAlreadyExecuted", err)
	}
}

func TestDeepFermatCircuitSim(t *testing.T) {
	// The equality gadget is a ~120-mul, depth ~61 circuit: one committee
	// per layer — a schedule stress test for the committee machinery.
	if testing.Short() {
		t.Skip("deep schedule in -short mode")
	}
	circ, err := circuit.NotEqualsIndicator()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ a, b, want uint64 }{
		{123, 123, 0},
		{123, 124, 1},
	} {
		in := inputsOf(map[int][]uint64{0: {tc.a}, 1: {tc.b}})
		res := runAndCompare(t, simParams(6, 1, 1, nil), circ, in)
		if res.Outputs[0][0] != field.New(tc.want) {
			t.Errorf("neq(%d,%d) = %v, want %d", tc.a, tc.b, res.Outputs[0][0], tc.want)
		}
		if res.Rounds != 6+circ.Depth() {
			t.Errorf("rounds = %d, want %d", res.Rounds, 6+circ.Depth())
		}
	}
}

func TestLeakyRolesParticipate(t *testing.T) {
	// Honest-but-curious roles follow the protocol: outputs stay correct
	// and no leaky role is excluded — with proofs or with robust decoding.
	circ, err := circuit.InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3}, 1: {4, 5, 6}})
	for _, robust := range []bool{false, true} {
		adv := &yoso.Adversary{Malicious: 1, Leaky: 2, Seed: 67}
		params := simParams(12, 3, 2, adv)
		params.Robust = robust
		res := runAndCompare(t, params, circ, in)
		for _, ex := range res.Excluded {
			if strings.Contains(ex, "leaky") {
				t.Errorf("robust=%v: leaky role excluded: %s", robust, ex)
			}
		}
	}
}

func TestFreshMasksAcrossRuns(t *testing.T) {
	// Privacy smoke test: the public μ openings are one-time-padded by
	// fresh λ's, so two runs on identical inputs publish different μ's.
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {11, 22}, 1: {33, 44}})
	collectMus := func() []field.Element {
		proto, err := New(simParams(6, 1, 1, nil), circ, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := proto.Run(in); err != nil {
			t.Fatal(err)
		}
		var mus []field.Element
		for _, p := range proto.Board().Entries(0) {
			if p.Category == comm.CatInput {
				// A client's posting is its μ bundle: one element per input.
				if len(p.Payload)%field.ElementSize != 0 {
					t.Fatalf("posting %d is not a μ bundle: %d bytes", p.Seq, len(p.Payload))
				}
				for off := 0; off < len(p.Payload); off += field.ElementSize {
					v, err := field.FromBytes(p.Payload[off:])
					if err != nil {
						t.Fatalf("posting %d is not a μ bundle: %v", p.Seq, err)
					}
					mus = append(mus, v)
				}
			}
		}
		return mus
	}
	a, b := collectMus(), collectMus()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("collected %d / %d μ openings", len(a), len(b))
	}
	if field.EqualVec(a, b) {
		t.Error("identical μ openings across runs — masks are not fresh")
	}
}

func TestConstGateThroughProtocol(t *testing.T) {
	// Affine computation with a public constant: 3x + 10, plus a
	// const-involving multiplication to exercise the zero-λ wire.
	b := circuit.NewBuilder()
	x := b.Input(0)
	ten := b.Const(field.New(10))
	three := b.Const(field.New(3))
	b.Output(b.Add(b.Mul(three, x), ten), 0)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {9}})
	res := runAndCompare(t, simParams(7, 1, 1, nil), circ, in)
	if res.Outputs[0][0] != field.New(37) {
		t.Errorf("3·9+10 = %v, want 37", res.Outputs[0][0])
	}
}

func TestEqualsIndicatorThroughProtocolReal(t *testing.T) {
	// The full equality gadget (const wire + ~120 muls at depth ~61) on
	// the REAL threshold-Paillier backend — deep-schedule, real crypto.
	if testing.Short() {
		t.Skip("deep real-crypto run in -short mode")
	}
	circ, err := circuit.EqualsIndicator()
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {12345}, 1: {12345}})
	res := runAndCompare(t, realParams(t, 4, 1, 1, nil), circ, in)
	if res.Outputs[0][0] != field.One {
		t.Errorf("eq = %v, want 1", res.Outputs[0][0])
	}
}

func TestSingletonCommittee(t *testing.T) {
	// Degenerate n=1, t=0, k=1: every committee is a single role; all
	// quorums are size 1. The protocol must still be exact.
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {3, 4}, 1: {5, 6}})
	res := runAndCompare(t, simParams(1, 0, 1, nil), circ, in)
	if res.Outputs[0][0] != field.New(39) {
		t.Errorf("output = %v, want 39", res.Outputs[0][0])
	}
}

func TestPackingLargerThanWidth(t *testing.T) {
	// k exceeds every layer's width: batches clamp to the layer size.
	circ, err := circuit.WideMul(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {2}, 1: {3}})
	runAndCompare(t, simParams(20, 2, 8, nil), circ, in)
}

func TestPlaintextCapacityExhaustionFailsLoudly(t *testing.T) {
	// A modelled 64-bit modulus cannot hold Σ of n 61-bit λ contributions:
	// the run must return a bound error, never silently wrap.
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{N: 6, T: 1, K: 1, TE: tte.NewSim(64), PKE: pke.NewSim()}
	proto, err := New(params, circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = proto.Run(inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}}))
	if err == nil {
		t.Fatal("tiny plaintext capacity accepted")
	}
	if !errors.Is(err, tte.ErrPlaintextTooBig) {
		t.Errorf("err = %v, want ErrPlaintextTooBig in chain", err)
	}
}

// keepingPKE keeps every slice SecretKeyFromBytes is handed — what a KFF
// owner builds its key from — instead of copying it. Layer members open
// their KFFs on the worker pool, so the list is locked.
type keepingPKE struct {
	pke.Scheme
	mu   sync.Mutex
	kept [][]byte
}

func (k *keepingPKE) SecretKeyFromBytes(data []byte) (pke.SecretKey, error) {
	k.mu.Lock()
	k.kept = append(k.kept, data)
	k.mu.Unlock()
	return k.Scheme.SecretKeyFromBytes(data)
}

// A recovered KFF secret does not outlive the key built from it: once
// openKFF has returned, the encoding it handed to SecretKeyFromBytes is all
// zero, on both PKE backends.
func TestOpenKFFWipesTheKeyEncoding(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}})
	for _, scheme := range []pke.Scheme{pke.NewSim(), pke.NewECIES()} {
		t.Run(scheme.Name(), func(t *testing.T) {
			keeping := &keepingPKE{Scheme: scheme}
			params := simParams(5, 1, 1, nil)
			params.PKE = keeping
			runAndCompare(t, params, circ, in)
			if len(keeping.kept) == 0 {
				t.Fatal("no KFF secret key was rebuilt")
			}
			for i, data := range keeping.kept {
				if len(data) != pke.SecretKeySize || !bytes.Equal(data, make([]byte, len(data))) {
					t.Errorf("KFF key %d: encoding %x left behind", i, data)
				}
			}
		})
	}
}
