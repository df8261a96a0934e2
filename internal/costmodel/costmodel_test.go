package costmodel

import (
	"reflect"
	"testing"

	"yosompc/internal/baseline"
	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/core"
	"yosompc/internal/field"
	"yosompc/internal/paillier"
	"yosompc/internal/pke"
	"yosompc/internal/postlen"
	"yosompc/internal/slotpack"
	"yosompc/internal/tte"
)

const modelBits = 512

// backends are what a row measures with, and the widths the model takes:
// the Sim backends modelling bits, or, for a real row, the real 512-bit test
// key, whose widths are those of a key it deals to the row's committee.
func backends(t *testing.T, real bool, bits, n, tt int) (core.TE, pke.Scheme, postlen.Sizes) {
	t.Helper()
	if !real {
		return tte.NewSim(bits), pke.NewSim(), SimSizes(bits)
	}
	te, err := tte.NewThreshold(paillier.FixedTestKey(0))
	if err != nil {
		t.Fatal(err)
	}
	tpk, _, err := te.KeyGen(n, tt)
	if err != nil {
		t.Fatal(err)
	}
	return te, pke.NewECIES(), postlen.Of(tpk)
}

func coreMeasured(t *testing.T, te core.TE, scheme pke.Scheme, n, tt, k int, circ *circuit.Circuit, in map[int][]field.Element) comm.Report {
	t.Helper()
	params := core.Params{N: n, T: tt, K: k, TE: te, PKE: scheme}
	proto, err := core.New(params, circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := proto.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return res.Report
}

func baselineMeasured(t *testing.T, te core.TE, scheme pke.Scheme, n, tt int, circ *circuit.Circuit, in map[int][]field.Element) comm.Report {
	t.Helper()
	params := baseline.Params{N: n, T: tt, TE: te, PKE: scheme}
	proto, err := baseline.New(params, circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := proto.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return res.Report
}

func inputsFor(c *circuit.Circuit) map[int][]field.Element {
	in := map[int][]field.Element{}
	for _, client := range c.Clients() {
		vals := make([]field.Element, c.InputCount(client))
		for i := range vals {
			vals[i] = field.New(uint64(client*10 + i + 1))
		}
		in[client] = vals
	}
	return in
}

// TestCoreModelMatchesMeasured validates the closed-form model against the
// instrumented driver byte-for-byte across circuit shapes and parameters —
// this is what licenses the Table-1-scale projections.
func TestCoreModelMatchesMeasured(t *testing.T) {
	mk := func(f func() (*circuit.Circuit, error)) *circuit.Circuit {
		c, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name    string
		circ    *circuit.Circuit
		n, t, k int
		bits    int
		// extract is the m′ the run extracts its randomness at
		// (slotpack.ListsOf), layerGroups[l] how many openings one member
		// of layer l+1 gets for its 3·(batches of the layer) shares, and
		// outGroups[c], when set, how many client c gets for its outputs.
		extract     int
		layerGroups []int64
		outGroups   []int64
		// real measures on the real 512-bit key instead of Sim.
		real bool
	}{
		{"inner-product", mk(func() (*circuit.Circuit, error) { return circuit.InnerProduct(4) }), 8, 2, 2, modelBits, 3, []int64{2}, nil, false},
		{"poly-eval", mk(func() (*circuit.Circuit, error) { return circuit.PolyEval(3) }), 10, 2, 3, modelBits, 4, []int64{1, 1, 1}, nil, false},
		{"wide", mk(func() (*circuit.Circuit, error) { return circuit.WideMul(8, 2) }), 12, 3, 3, modelBits, 4, []int64{3, 3}, nil, false},
		{"stats", mk(func() (*circuit.Circuit, error) { return circuit.Statistics(4) }), 9, 2, 2, modelBits, 3, []int64{3}, nil, false},
		{"k1", mk(func() (*circuit.Circuit, error) { return circuit.InnerProduct(3) }), 6, 1, 1, modelBits, 1, []int64{3}, nil, false},
		// k = 1 allows no extraction: 2k − 1 = 1, whatever the committee.
		{"k1 wide", mk(func() (*circuit.Circuit, error) { return circuit.WideMul(4, 2) }), 9, 2, 1, 2048, 1, []int64{1, 1}, nil, false},
		// A layer's shares split over several openings: 5 batches of 133 +
		// 133 + 201 bits in 510-bit openings, one batch each.
		{"512-bit split layer", mk(func() (*circuit.Circuit, error) { return circuit.WideMul(10, 1) }), 9, 2, 2, modelBits, 3, []int64{5}, nil, false},
		// ≥ 4 batches per layer, several in one opening: 6 batches of 146 +
		// 146 + 227 bits in 2046-bit openings go 11 + 7 shares; m′ = 6 is
		// even, below 2k − 1 = 7.
		{"2048-bit wide layers", mk(func() (*circuit.Circuit, error) { return circuit.WideMul(24, 2) }), 14, 3, 4, 2048, 6, []int64{2, 2}, nil, false},
		{"2048-bit random", mk(func() (*circuit.Circuit, error) { return circuit.Random(6, 60, 3) }), 10, 2, 3, 2048, 5, []int64{1, 1, 1, 1, 1}, nil, false},
		// real2048_wide's shape at the largest extraction, m′ = 2k − 1.
		{"extracted at 2k − 1", mk(func() (*circuit.Circuit, error) { return circuit.WideMul(2, 1) }), 8, 2, 2, 2048, 3, []int64{1}, nil, false},
		// One recipient, several groups under one posting key: every output
		// member seals three envelopes to the one output client, as every
		// OffRe member seals eight to each layer member.
		{"one client, several output groups", mk(func() (*circuit.Circuit, error) { return circuit.WideMul(16, 1) }), 9, 2, 2, modelBits, 3, []int64{8}, []int64{3, 0}, false},
		// No multiplication: no Beaver committee is formed, and one input λ
		// per client takes a position of its own at any m′, so m′ = 1.
		{"linear", mk(linearCircuit), 8, 2, 2, modelBits, 1, nil, nil, false},
		// The real key: every width exact, sub-shares at epochs 0 (OffDec)
		// and 1 (OffRe, formed for layer 1's keys-for-future).
		{"512-bit key", mk(func() (*circuit.Circuit, error) { return circuit.WideMul(16, 2) }), 9, 2, 2, modelBits, 3, []int64{8, 8}, nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.real && testing.Short() {
				t.Skip("real backend")
			}
			in := inputsFor(c.circ)
			te, scheme, z := backends(t, c.real, c.bits, c.n, c.t)
			measured := coreMeasured(t, te, scheme, c.n, c.t, c.k, c.circ, in)
			shape := packedShape(c.circ, c.n, c.t, c.k, z.SlotBits)
			opened := shape.Opened
			if opened.Extract != c.extract {
				t.Errorf("m′ = %d, want %d", opened.Extract, c.extract)
			}
			for l, want := range c.layerGroups {
				if got := slotpack.Count(opened.Layers[l], z.SlotBits); got != want {
					t.Errorf("layer %d: %d openings per member, want %d", l+1, got, want)
				}
			}
			for client, want := range c.outGroups {
				if got := slotpack.Count(opened.Outputs[client], z.SlotBits); got != want {
					t.Errorf("client %d: %d output openings, want %d", client, got, want)
				}
			}
			predicted := Core(c.n, c.t, c.k, shape, z)
			if got, want := measured.Phase(comm.PhaseSetup), predicted.Setup; got != want {
				t.Errorf("setup: measured %d, model %d", got, want)
			}
			if got, want := measured.Phase(comm.PhaseOffline), predicted.Offline; got != want {
				t.Errorf("offline: measured %d, model %d", got, want)
			}
			if got, want := measured.Phase(comm.PhaseOnline), predicted.Online; got != want {
				t.Errorf("online: measured %d, model %d", got, want)
			}
		})
	}
}

// TestBaselineModelMatchesMeasured does the same for the CDN baseline.
func TestBaselineModelMatchesMeasured(t *testing.T) {
	mk := func(f func() (*circuit.Circuit, error)) *circuit.Circuit {
		c, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name string
		circ *circuit.Circuit
		n, t int
		real bool
	}{
		{"inner-product", mk(func() (*circuit.Circuit, error) { return circuit.InnerProduct(4) }), 5, 2, false},
		{"poly-eval", mk(func() (*circuit.Circuit, error) { return circuit.PolyEval(3) }), 7, 3, false},
		{"wide", mk(func() (*circuit.Circuit, error) { return circuit.WideMul(6, 2) }), 9, 4, false},
		{"linear", mk(linearCircuit), 5, 2, false},
		// Depth 3 on the real key: the layers reshare at epochs 0, 1 and 2.
		{"512-bit key", mk(func() (*circuit.Circuit, error) { return circuit.PolyEval(3) }), 7, 3, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.real && testing.Short() {
				t.Skip("real backend")
			}
			in := inputsFor(c.circ)
			te, scheme, z := backends(t, c.real, modelBits, c.n, c.t)
			measured := baselineMeasured(t, te, scheme, c.n, c.t, c.circ, in)
			predicted := Baseline(c.n, c.t, ShapeOf(c.circ, c.n, c.t, 1), z)
			if got, want := measured.Phase(comm.PhaseSetup), predicted.Setup; got != want {
				t.Errorf("setup: measured %d, model %d", got, want)
			}
			if got, want := measured.Phase(comm.PhaseOffline), predicted.Offline; got != want {
				t.Errorf("offline: measured %d, model %d", got, want)
			}
			if got, want := measured.Phase(comm.PhaseOnline), predicted.Online; got != want {
				t.Errorf("online: measured %d, model %d", got, want)
			}
		})
	}
}

func TestShapeOf(t *testing.T) {
	c, err := circuit.WideMul(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := ShapeOf(c, 12, 3, 3)
	if s.Muls != 16 || s.Depth != 2 {
		t.Errorf("shape = %+v", s)
	}
	if want := []int{3, 3}; !reflect.DeepEqual(s.BatchesPerLayer, want) { // ceil(8/3) = 3 per layer
		t.Errorf("batches per layer = %v, want %v", s.BatchesPerLayer, want)
	}
	if s.Inputs != 8 || s.InputClients != 2 {
		t.Errorf("inputs = %d clients = %d", s.Inputs, s.InputClients)
	}
}

func TestModelScalingShape(t *testing.T) {
	// The model must show the paper's asymptotics under its amortization
	// assumption (each role processes O(n) values, i.e. width ∝ n·k):
	// with k ∝ n·ε the packed protocol's online bytes per gate are flat
	// in n, while the baseline's grow ∝ n.
	z := SimSizes(2048)
	var corePerGate, basePerGate []float64
	for _, n := range []int{64, 256, 1024} {
		tt := n * 2 / 5
		k := n / 10
		width := 8 * n * k // wide enough that per-role KFF delivery amortizes
		shape := FreshShape(n, tt, k, z.SlotBits, []int{1, 1}, []int{1, 0}, []int{width})
		corePerGate = append(corePerGate,
			float64(Core(n, tt, k, shape, z).Online)/float64(width))
		baseShape := shape
		baseShape.BatchesPerLayer = []int{width} // k=1 layout for the baseline
		basePerGate = append(basePerGate,
			float64(Baseline(n, (n-1)/2, baseShape, z).Online)/float64(width))
	}
	// Baseline per-gate online grows at least ~linearly across 4× steps.
	for i := 1; i < 3; i++ {
		if basePerGate[i] < 3*basePerGate[i-1] {
			t.Errorf("baseline online per gate not ~linear: %v", basePerGate)
		}
	}
	// Packed per-gate online stays flat (paper Theorem 1): allow 30%.
	for i := 1; i < 3; i++ {
		if corePerGate[i] > 1.3*corePerGate[0] {
			t.Errorf("packed online per gate grew with n: %v", corePerGate)
		}
	}
	// And the gap at n=1024 is large (three orders of magnitude territory).
	if basePerGate[2]/corePerGate[2] < 500 {
		t.Errorf("improvement factor at n=1024 only %.1f×", basePerGate[2]/corePerGate[2])
	}
}

func TestCoreVariantsModelMatchesMeasured(t *testing.T) {
	wide, err := circuit.WideMul(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The naive (NoKFF) variant has no driver mode of its own: core's
	// TestNaiveModelFromKFFRun derives its bytes from a measured KFF run.
	cases := []struct {
		name string
		circ *circuit.Circuit
		opts CoreOptions
	}{
		{"robust", wide, CoreOptions{Robust: true}},
	}
	const n, tt, k = 14, 3, 3 // robust: 3·3+2·2+1 = 14 ≤ 14
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			circ, in := c.circ, inputsFor(c.circ)
			params := core.Params{
				N: n, T: tt, K: k,
				TE: tte.NewSim(modelBits), PKE: pke.NewSim(),
				Robust: c.opts.Robust,
			}
			proto, err := core.New(params, circ, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := proto.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			z := SimSizes(modelBits)
			pred := CoreWith(n, tt, k, packedShape(circ, n, tt, k, z.SlotBits), z, c.opts)
			if got := res.Report.Phase(comm.PhaseSetup); got != pred.Setup {
				t.Errorf("setup: measured %d, model %d", got, pred.Setup)
			}
			if got := res.Report.Phase(comm.PhaseOffline); got != pred.Offline {
				t.Errorf("offline: measured %d, model %d", got, pred.Offline)
			}
			if got := res.Report.Phase(comm.PhaseOnline); got != pred.Online {
				t.Errorf("online: measured %d, model %d", got, pred.Online)
			}
		})
	}
}

// linearCircuit is two inputs, their sum and an output: a circuit without a
// multiplication.
func linearCircuit() (*circuit.Circuit, error) {
	b := circuit.NewBuilder()
	b.Output(b.Add(b.Input(0), b.Input(1)), 0)
	return b.Build()
}

// ShapeOf extracts a Shape from a circuit for committee size n, corruption
// bound t and packing factor k, without the packed protocol's Opened lists
// (packedShape): the baseline's shape is ShapeOf(c, n, t, 1).
func ShapeOf(c *circuit.Circuit, n, t, k int) Shape {
	s := Shape{
		Muls:  c.NumMul(),
		Depth: c.Depth(),
	}
	for _, client := range c.Clients() {
		s.Clients++
		n := c.InputCount(client)
		s.Inputs += n
		if n > 0 {
			s.InputClients++
		}
		s.Outputs += len(c.OutputGates(client))
	}
	s.BatchesPerLayer = make([]int, c.Depth())
	for _, mb := range c.MulBatches(k) {
		s.BatchesPerLayer[mb.Layer-1]++
	}
	return s
}

// packedShape is ShapeOf with the lists the packed protocol opens under a
// key of capacity bits and the clients whose outputs are not early.
func packedShape(c *circuit.Circuit, n, t, k, capacity int) Shape {
	s := ShapeOf(c, n, t, k)
	s.Opened = slotpack.ListsOf(c, n, t, k, capacity)
	early := c.EarlyOutputs()
	for _, client := range c.Clients() {
		s.Late = append(s.Late, len(c.OutputGates(client)) > 0 && !early[client])
	}
	return s
}
