package core

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/paillier"
	"yosompc/internal/pke"
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
	if e, _ := proto.Board().Get(0); e.Trace.Proc != longest.Proc {
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

func TestRoundsAccounting(t *testing.T) {
	// The YOSO round structure: 6 offline committees (incl. the tsk
	// bridge), OnC1, one client round, one committee per multiplication
	// layer, and the output committee — 9 + depth sequential broadcast
	// rounds.
	circ, err := circuit.PolyEval(3) // depth 3
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {2}})
	res := runAndCompare(t, simParams(8, 2, 2, nil), circ, in)
	if res.Rounds != 12 {
		t.Errorf("rounds = %d, want 12 for depth 3", res.Rounds)
	}
}

func TestDeepCircuitRealDJ(t *testing.T) {
	// Damgård–Jurik degree 2 gives the integer headroom a deeper circuit
	// needs on the real backend (the per-wire bounds grow with depth).
	if testing.Short() {
		t.Skip("real crypto in -short mode")
	}
	te, err := tte.NewThresholdDJ(paillier.FixedTestKey(3), 2)
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
	if _, err := prepared.Execute(inputsOf(map[int][]uint64{0: {1}, 1: {2, 3}})); err == nil {
		t.Error("short inputs accepted by Execute")
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
		if res.Rounds != 9+circ.Depth() {
			t.Errorf("rounds = %d, want %d", res.Rounds, 9+circ.Depth())
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
				vals, err := field.VecFromBytes(p.Payload, len(p.Payload)/field.ElementSize)
				if err != nil || len(p.Payload)%field.ElementSize != 0 {
					t.Fatalf("posting %d is not a μ bundle: %d bytes, %v", p.Seq, len(p.Payload), err)
				}
				mus = append(mus, vals...)
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

func TestNoKFFModeCorrect(t *testing.T) {
	// The §3.2 naive ablation must still compute correctly — it just pays
	// the re-encryption bytes online instead of offline.
	circ, err := circuit.WideMul(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {2, 3, 4}, 1: {5, 6, 7}})
	params := simParams(9, 2, 2, nil)
	params.NoKFF = true
	res := runAndCompare(t, params, circ, in)

	full := runAndCompare(t, simParams(9, 2, 2, nil), circ, in)
	// The naive mode's online phase must carry the Θ(n²·batches)
	// re-encryption traffic that KFF moves offline.
	naiveOnline := res.Report.Phase(comm.PhaseOnline)
	kffOnline := full.Report.Phase(comm.PhaseOnline)
	if naiveOnline <= kffOnline {
		t.Errorf("naive online %d not above KFF online %d", naiveOnline, kffOnline)
	}
	// And its offline phase must be lighter.
	if res.Report.Phase(comm.PhaseOffline) >= full.Report.Phase(comm.PhaseOffline) {
		t.Errorf("naive offline %d not below KFF offline %d",
			res.Report.Phase(comm.PhaseOffline), full.Report.Phase(comm.PhaseOffline))
	}
	// No keys-for-future appear anywhere in the naive run.
	for phase, cats := range res.Report.ByCat {
		if cats[comm.CatKFF] != 0 {
			t.Errorf("naive run posted KFF bytes in %s", phase)
		}
	}
}

func TestNoKFFWithAdversary(t *testing.T) {
	circ, err := circuit.InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3}, 1: {4, 5, 6}})
	params := simParams(10, 2, 2, yoso.NewAdversary(2, 0, 83))
	params.NoKFF = true
	runAndCompare(t, params, circ, in)
}

func TestStructuredLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	params := simParams(8, 2, 2, yoso.NewAdversary(1, 0, 91))
	params.Logger = logger
	in := inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}})
	runAndCompare(t, params, circ, in)
	logs := buf.String()
	for _, want := range []string{
		"setup phase starting",
		"offline phase starting",
		"online phase starting",
		"committee spoke",
		"role excluded",
		"online phase complete",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %q", want)
		}
	}
}

func TestPrepareContextCancellation(t *testing.T) {
	circ, err := circuit.WideMul(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(simParams(8, 2, 2, nil), circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first committee step must abort
	if _, err := proto.PrepareContext(ctx); err == nil {
		t.Error("cancelled prepare succeeded")
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
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
