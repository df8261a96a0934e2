package baseline

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/paillier"
	"yosompc/internal/pke"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

func simParams(n, t int, adv *yoso.Adversary) Params {
	return Params{N: n, T: t, TE: tte.NewSim(512), PKE: pke.NewSim(), Adversary: adv}
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
	res := runAndCompare(t, simParams(5, 2, nil), circ, in)
	if res.Outputs[0][0] != field.New(70) {
		t.Errorf("inner product = %v, want 70", res.Outputs[0][0])
	}
}

func TestDeepCircuitSim(t *testing.T) {
	circ, err := circuit.PolyEval(4)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {2, 3, 1, 4, 2}, 1: {3}})
	res := runAndCompare(t, simParams(5, 2, nil), circ, in)
	if res.Outputs[1][0] != field.New(290) {
		t.Errorf("p(3) = %v, want 290", res.Outputs[1][0])
	}
}

func TestLinearOnlyCircuit(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	b.Output(b.ConstMul(field.New(3), b.Sub(x, y)), 0)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {10}, 1: {4}})
	res := runAndCompare(t, simParams(4, 1, nil), circ, in)
	if res.Outputs[0][0] != field.New(18) {
		t.Errorf("3(x−y) = %v, want 18", res.Outputs[0][0])
	}
}

func TestRealBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("real crypto in -short mode")
	}
	te, err := tte.NewThreshold(paillier.FixedTestKey(1))
	if err != nil {
		t.Fatal(err)
	}
	params := Params{N: 4, T: 1, TE: te, PKE: pke.NewECIES()}
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {3, 5}, 1: {7, 11}})
	res := runAndCompare(t, params, circ, in)
	if res.Outputs[0][0] != field.New(76) {
		t.Errorf("inner product = %v, want 76", res.Outputs[0][0])
	}
}

// Malicious members are excluded, and their postings are garbage of the
// step's posting length, so the run posts exactly the honest run's bytes,
// phase by phase: only the proofs and the contents differ.
func TestMaliciousExcluded(t *testing.T) {
	circ, err := circuit.InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3}, 1: {4, 5, 6}})
	adv := yoso.NewAdversary(2, 0, 23)
	res := runAndCompare(t, simParams(6, 2, adv), circ, in)
	if len(res.Excluded) == 0 {
		t.Error("no roles excluded despite adversary")
	}
	honest := runAndCompare(t, simParams(6, 2, nil), circ, in)
	for _, phase := range []comm.Phase{comm.PhaseSetup, comm.PhaseOffline, comm.PhaseOnline} {
		if got, want := res.Report.Phase(phase), honest.Report.Phase(phase); got != want {
			t.Errorf("%s: malicious run posted %d B, honest run %d B", phase, got, want)
		}
	}
}

// The baseline runs on the shared committee runtime's worker pool, and the
// pool's contract holds for it too: the worker count changes wall clock
// only. Outputs, the metered report and the excluded list are identical
// between the serial path and one worker per CPU, adversary included.
func TestWorkersSerialEquivalence(t *testing.T) {
	circ, err := circuit.WideMul(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {2, 3, 4, 5}, 1: {6, 7, 2, 3}})
	runWith := func(workers int) *Result {
		t.Helper()
		proto, err := New(simParams(9, 2, yoso.NewAdversary(1, 1, 31)), circ, nil)
		if err != nil {
			t.Fatal(err)
		}
		proto.rt.Workers = workers
		res, err := proto.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, pooled := runWith(1), runWith(runtime.NumCPU())
	if !reflect.DeepEqual(serial.Report, pooled.Report) {
		t.Errorf("report diverged from serial:\nserial: %+v\npooled: %+v", serial.Report, pooled.Report)
	}
	if !reflect.DeepEqual(serial.Outputs, pooled.Outputs) {
		t.Errorf("outputs %v, serial %v", pooled.Outputs, serial.Outputs)
	}
	if !reflect.DeepEqual(serial.Excluded, pooled.Excluded) {
		t.Errorf("excluded %v, serial %v", pooled.Excluded, serial.Excluded)
	}
	if len(serial.Excluded) == 0 {
		t.Error("adversarial run excluded nobody")
	}
}

func TestQuorumLossFails(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}})
	adv := yoso.NewAdversary(0, 3, 29) // 3 of 5 crash, t=2 needs 3 partials
	proto, err := New(simParams(5, 2, adv), circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Run(in); err == nil {
		t.Error("run succeeded without quorum")
	}
}

func TestValidation(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{N: 0, T: 0, TE: tte.NewSim(512), PKE: pke.NewSim()},
		{N: 4, T: 2, TE: tte.NewSim(512), PKE: pke.NewSim()}, // 2t+1 > n
		{N: 4, T: 1, PKE: pke.NewSim()},
		{N: 4, T: 1, TE: tte.NewSim(512)},
	}
	for i, p := range bad {
		if _, err := New(p, circ, nil); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	if _, err := New(simParams(4, 1, nil), nil, nil); err == nil {
		t.Error("nil circuit accepted")
	}
	proto, err := New(simParams(4, 1, nil), circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Run(inputsOf(map[int][]uint64{0: {1}, 1: {1, 2}})); err == nil {
		t.Error("short inputs accepted")
	}
}

func TestOnlinePerGateGrowsWithN(t *testing.T) {
	// The baseline's defining cost: per-gate online partial-decryption
	// bytes grow linearly with n.
	circ, err := circuit.WideMul(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {5, 6, 7, 8}})
	var per []float64
	for _, n := range []int{4, 8, 16} {
		res := runAndCompare(t, simParams(n, (n-1)/2, nil), circ, in)
		partial := res.Report.ByCat[comm.PhaseOnline][comm.CatPartial]
		per = append(per, float64(partial)/float64(circ.NumMul()))
	}
	if per[2] < 3*per[0] {
		t.Errorf("per-gate online cost did not grow ~linearly with n: %v", per)
	}
}

func TestRoundsAccounting(t *testing.T) {
	circ, err := circuit.PolyEval(3) // depth 3
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {2}})
	res := runAndCompare(t, simParams(5, 2, nil), circ, in)
	if res.Rounds != 7 {
		t.Errorf("rounds = %d, want 7 for depth 3", res.Rounds)
	}

	// Without a multiplication only the output committee speaks after the
	// clients: 2 rounds.
	res = runAndCompare(t, simParams(5, 2, nil), linearCircuit(t), inputsOf(map[int][]uint64{0: {3}, 1: {4}}))
	if res.Rounds != 2 {
		t.Errorf("linear circuit: rounds = %d, want 2", res.Rounds)
	}
}

// The schedule, read off the board: the committee manifests a run posts name
// CDN's two Beaver committees, one per multiplication layer and the output
// committee, in that order, and Rounds is one per manifest plus the client
// round. A linear circuit forms only the output committee.
func TestScheduleOnTheBoard(t *testing.T) {
	poly, err := circuit.PolyEval(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		circ *circuit.Circuit
		in   map[int][]field.Element
		want []string
	}{
		{"depth 3", poly, inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {2}}),
			[]string{"bOff1", "bOff2", "bLayer1", "bLayer2", "bLayer3", "bOut"}},
		{"linear", linearCircuit(t), inputsOf(map[int][]uint64{0: {3}, 1: {4}}), []string{"bOut"}},
	} {
		proto, err := New(simParams(5, 2, nil), tc.circ, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := proto.Run(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range proto.Board().Entries(0) {
			if e.Category != comm.CatManifest {
				continue
			}
			var m transport.Manifest
			if err := m.UnmarshalBinary(e.Payload); err != nil {
				t.Fatal(err)
			}
			got = append(got, m.Committee)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: committees %v, want %v", tc.name, got, tc.want)
		}
		if res.Rounds != len(got)+1 {
			t.Errorf("%s: rounds = %d for %d manifests, want one more", tc.name, res.Rounds, len(got))
		}
	}
}

// A Result is its run's: two runs on one Protocol report the same bytes and
// exclude the same number of roles, not the Protocol's running totals.
func TestRunsReportTheirOwnBytes(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}})
	proto, err := New(simParams(5, 2, yoso.NewAdversary(1, 0, 5)), circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for run := 1; run <= 2; run++ {
		res, err := proto.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Report.Total != first.Report.Total || len(res.Excluded) != len(first.Excluded) {
			t.Errorf("second run: %d bytes and %d excluded roles, the first %d and %d",
				res.Report.Total, len(res.Excluded), first.Report.Total, len(first.Excluded))
		}
	}
	if got := proto.Board().Report().Total; got != 2*first.Report.Total {
		t.Errorf("the board holds %d bytes after two runs, want %d", got, 2*first.Report.Total)
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

// Inputs that do not match the circuit, short or long, are refused with
// circuit.ErrWrongInputs before anything is posted.
func TestWrongInputsAreTyped(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(simParams(4, 1, nil), circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]map[int][]uint64{
		"short": {0: {1}, 1: {1, 2}},
		"long":  {0: {1, 2, 3}, 1: {1, 2}},
	} {
		if _, err := proto.Run(inputsOf(in)); !errors.Is(err, circuit.ErrWrongInputs) {
			t.Errorf("%s inputs: err = %v, want circuit.ErrWrongInputs", name, err)
		}
	}
	if n := proto.Board().Len(); n != 0 {
		t.Errorf("refused runs posted %d entries", n)
	}
}
