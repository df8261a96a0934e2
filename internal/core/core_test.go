package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/paillier"
	"yosompc/internal/pke"
	"yosompc/internal/slotpack"
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
	for name, build := range map[string]func() (*circuit.Circuit, error){
		"wide":       func() (*circuit.Circuit, error) { return circuit.WideMul(8, 2) },
		"statistics": func() (*circuit.Circuit, error) { return circuit.Statistics(4) },
	} {
		t.Run(name, func(t *testing.T) {
			circ, err := build()
			if err != nil {
				t.Fatal(err)
			}
			in := propertyInputs(circ, 1)
			honest := runAndCompare(t, simParams(9, 2, 2, nil), circ, in)
			malicious := runAndCompare(t, simParams(9, 2, 2, yoso.NewAdversary(2, 0, 7)), circ, in)
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

func TestKeyUsageFlowAudit(t *testing.T) {
	// E7: the Fig. 1 key-usage flow. Packed shares and input λ's are only
	// ever opened under KFF keys; KFF secrets only under role keys; tsk
	// shares only under role keys; outputs only under client keys.
	circ, err := circuit.InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3}, 1: {4, 5, 6}})
	res := runAndCompare(t, simParams(8, 2, 2, nil), circ, in)

	forbidden := map[ValueClass][]KeyClass{
		ValPackedShare: {KeyTPK, KeyRole, KeyClient},
		ValWireLambda:  {KeyTPK, KeyRole, KeyClient},
		ValKFFSecret:   {KeyTPK, KeyKFF, KeyClient},
		ValTskShare:    {KeyKFF, KeyClient, KeyTPK},
		ValOutput:      {KeyKFF, KeyRole, KeyTPK},
	}
	counts := map[ValueClass]int{}
	for _, e := range res.Audit {
		counts[e.Value]++
		for _, bad := range forbidden[e.Value] {
			if e.Key == bad {
				t.Errorf("audit violation: %v", e)
			}
		}
	}
	for _, val := range []ValueClass{ValPackedShare, ValWireLambda, ValKFFSecret, ValTskShare, ValOutput, ValBeaverOpen} {
		if counts[val] == 0 {
			t.Errorf("no audit events for %s", val)
		}
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
	// The YOSO round structure: 4 offline committees, OnC1 (formed
	// offline, speaking at online start), one client round and one
	// committee per multiplication layer — 6 + depth sequential broadcast
	// rounds. PolyEval's output is a product, so it needs no committee:
	// OffRe sealed its λ's.
	circ, err := circuit.PolyEval(3) // depth 3
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {2}})
	res := runAndCompare(t, simParams(8, 2, 2, nil), circ, in)
	if res.Rounds != 9 {
		t.Errorf("rounds = %d, want 9 for depth 3", res.Rounds)
	}

	// Without a multiplication there is no Beaver step: OffB is never
	// formed. The output x₀ + x₁ may not reach client 0 before client 1's
	// input is posted, so OnOut seals it: OffR, OffDec, OffRe, OnC1, the
	// client round and OnOut make 6 rounds, and the offline phase publishes
	// 4·n role keys, OnC1's among them.
	const n = 8
	res = runAndCompare(t, simParams(n, 2, 2, nil), linearCircuit(t), inputsOf(map[int][]uint64{0: {3}, 1: {4}}))
	if res.Rounds != 6 {
		t.Errorf("linear circuit: rounds = %d, want 6", res.Rounds)
	}
	if got, want := res.Report.ByCat[comm.PhaseOffline][comm.CatRoleKeys], int64(4*n*pke.PublicKeySize); got != want {
		t.Errorf("linear circuit: %d offline role-key bytes, want %d (4 committees of %d)", got, want, n)
	}
}

// The schedule, read off the board: the committee manifests a run posts name
// its committees in the order they were formed, and Rounds is one per
// manifest plus the client round. A linear circuit forms no OffB, and its
// output, x₀ + x₁ to client 0, needs OnOut.
func TestScheduleOnTheBoard(t *testing.T) {
	poly, err := circuit.PolyEval(3)
	if err != nil {
		t.Fatal(err)
	}
	// formed whether the circuit multiplies or not
	shared := []string{"offDec", "offRe", "onC1"}
	for _, tc := range []struct {
		name string
		circ *circuit.Circuit
		in   map[int][]field.Element
		want []string
	}{
		{"depth 3", poly, inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {2}}),
			append(append([]string{"offR", "offB"}, shared...), "on-layer1", "on-layer2", "on-layer3")},
		{"linear", linearCircuit(t), inputsOf(map[int][]uint64{0: {3}, 1: {4}}),
			append(append([]string{"offR"}, shared...), "onOut")},
	} {
		proto, err := New(simParams(8, 2, 2, nil), tc.circ, nil)
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
		if res.Report.Total != 57179 || len(res.Audit) != 39 {
			t.Errorf("run %d: %d bytes and %d audit events, want 57179 and 39", run, res.Report.Total, len(res.Audit))
		}
	}
	if prepared[0] != prepared[1] {
		t.Errorf("OfflineReport after each Prepare: %v bytes, want equal", prepared)
	}
	if got := proto.Board().Report().Total; got != 2*57179 {
		t.Errorf("the board holds %d bytes after two runs, want %d", got, 2*57179)
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
	// IT-GOD: μ shares carry no proofs; t malicious roles post uniformly
	// random lies; Berlekamp–Welch decodes the truth.
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
// phase, and OnC1's manifest and role keys are among its postings, so OffRe
// hands tsk over before any input exists. Each client can open its output
// λ's from what Prepare left, OffRe's postings all precede the first client
// input, and Execute's outputs are μ plus exactly those λ's. tsk is recovered
// from a hand-off by two committees only: OffRe offline and OnC1 online.
func TestPrepareIsOfflineAndOutputsSealedBeforeInputs(t *testing.T) {
	circ, err := circuit.PolyEval(3)
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
	onC1Keys := -1 // role keys still to see after OnC1's manifest
	for _, e := range proto.Board().Entries(0) {
		if e.Phase == comm.PhaseOnline {
			t.Fatalf("Prepare posted #%d from %s under the online phase", e.Seq, e.From)
		}
		switch {
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

	res, err := prep.Execute(inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {2}}))
	if err != nil {
		t.Fatal(err)
	}
	firstInput, offRe := -1, 0
	for _, e := range proto.Board().Entries(0) {
		if e.Category == comm.CatInput && firstInput < 0 {
			firstInput = e.Seq
		}
		if e.Category == comm.CatReencrypt && strings.HasPrefix(e.From, "offRe/") && firstInput < 0 {
			offRe++
		}
	}
	if firstInput < 0 || offRe != n {
		t.Fatalf("first input at #%d after %d OffRe Re-encrypt postings, want one after all %d", firstInput, offRe, n)
	}
	gates := circ.Gates()
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
	if want := map[comm.Phase]int{comm.PhaseOffline: n, comm.PhaseOnline: n}; !reflect.DeepEqual(recovered, want) {
		t.Errorf("tsk shares recovered per phase %v, want %v (OffRe, then OnC1)", recovered, want)
	}
}

// An output that is not early (circuit.EarlyOutputs) reaches its client
// only after the inputs are posted: OnOut seals it after the last layer,
// while OffRe seals the early outputs in Prepare. Client 0 receives x₀·x₁,
// client 1 receives x₀ + x₁, from which its λ would hand client 1 the mask of
// x₀ before the input round.
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
	lastInput, onOut := -1, 0
	for _, e := range proto.Board().Entries(0) {
		switch {
		case e.Category == comm.CatInput:
			lastInput = e.Seq
		case e.Category == comm.CatOutput && strings.HasPrefix(e.From, "onOut/"):
			if lastInput < 0 {
				t.Fatalf("OnOut posted #%d before any input", e.Seq)
			}
			onOut++
		}
	}
	if onOut != n {
		t.Errorf("%d OnOut postings after the inputs, want %d", onOut, n)
	}
	recovered := map[comm.Phase]int{}
	for _, e := range res.Audit {
		if e.Value == ValTskShare {
			recovered[e.Phase]++
		}
	}
	if want := map[comm.Phase]int{comm.PhaseOffline: n, comm.PhaseOnline: 2 * n}; !reflect.DeepEqual(recovered, want) {
		t.Errorf("tsk shares recovered per phase %v, want %v (OffRe, then OnC1 and OnOut)", recovered, want)
	}
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
