package costmodel

import (
	"testing"

	"yosompc/internal/baseline"
	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/core"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/slotpack"
	"yosompc/internal/tte"
)

const modelBits = 512

func coreMeasured(t *testing.T, bits, n, tt, k int, circ *circuit.Circuit, in map[int][]field.Element) comm.Report {
	t.Helper()
	params := core.Params{N: n, T: tt, K: k, TE: tte.NewSim(bits), PKE: pke.NewSim()}
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

func baselineMeasured(t *testing.T, n, tt int, circ *circuit.Circuit, in map[int][]field.Element) comm.Report {
	t.Helper()
	params := baseline.Params{N: n, T: tt, TE: tte.NewSim(modelBits), PKE: pke.NewSim()}
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
		// layerGroups[l] is how many openings one member of layer l+1 gets
		// for its 3·(batches of the layer) shares.
		layerGroups []int64
	}{
		{"inner-product", mk(func() (*circuit.Circuit, error) { return circuit.InnerProduct(4) }), 8, 2, 2, modelBits, []int64{2}},
		{"poly-eval", mk(func() (*circuit.Circuit, error) { return circuit.PolyEval(3) }), 10, 2, 3, modelBits, []int64{1, 1, 1}},
		{"wide", mk(func() (*circuit.Circuit, error) { return circuit.WideMul(8, 2) }), 12, 3, 3, modelBits, []int64{3, 3}},
		{"stats", mk(func() (*circuit.Circuit, error) { return circuit.Statistics(4) }), 9, 2, 2, modelBits, []int64{3}},
		{"k1", mk(func() (*circuit.Circuit, error) { return circuit.InnerProduct(3) }), 6, 1, 1, modelBits, []int64{3}},
		// A layer's shares split over several openings: 5 batches of 128 +
		// 128 + 191 bits in 510-bit openings, one batch each.
		{"512-bit split layer", mk(func() (*circuit.Circuit, error) { return circuit.WideMul(10, 1) }), 9, 2, 2, modelBits, []int64{5}},
		// ≥ 4 batches per layer, several in one opening: 6 batches of 129 +
		// 129 + 193 bits in 2046-bit openings go 13 + 5 shares.
		{"2048-bit wide layers", mk(func() (*circuit.Circuit, error) { return circuit.WideMul(24, 2) }), 14, 3, 4, 2048, []int64{2, 2}},
		{"2048-bit random", mk(func() (*circuit.Circuit, error) { return circuit.Random(6, 60, 3) }), 10, 2, 3, 2048, []int64{1, 1, 1, 1, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := inputsFor(c.circ)
			measured := coreMeasured(t, c.bits, c.n, c.t, c.k, c.circ, in)
			shape, z := ShapeOf(c.circ, c.n, c.t, c.k), SimSizes(c.bits)
			for l, want := range c.layerGroups {
				if got := slotpack.Count(shape.Opened.Layers[l], z.SlotBits); got != want {
					t.Errorf("layer %d: %d openings per member, want %d", l+1, got, want)
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
	}{
		{"inner-product", mk(func() (*circuit.Circuit, error) { return circuit.InnerProduct(4) }), 5, 2},
		{"poly-eval", mk(func() (*circuit.Circuit, error) { return circuit.PolyEval(3) }), 7, 3},
		{"wide", mk(func() (*circuit.Circuit, error) { return circuit.WideMul(6, 2) }), 9, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := inputsFor(c.circ)
			measured := baselineMeasured(t, c.n, c.t, c.circ, in)
			predicted := Baseline(c.n, c.t, ShapeOf(c.circ, c.n, c.t, 1), SimSizes(modelBits))
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
	if s.Batches() != 6 { // ceil(8/3) = 3 per layer
		t.Errorf("batches = %d, want 6", s.Batches())
	}
	if s.Inputs != 8 || s.InputClients != 2 {
		t.Errorf("inputs = %d clients = %d", s.Inputs, s.InputClients)
	}
}

func TestPerLayerMulsApprox(t *testing.T) {
	// Shape extracted with k>1 falls back to even distribution.
	s := Shape{Muls: 10, Depth: 3, BatchesPerLayer: []int{2, 2, 2}}
	out := perLayerMuls(s)
	sum := 0
	for _, v := range out {
		sum += v
	}
	if sum != 10 || len(out) != 3 {
		t.Errorf("perLayerMuls = %v", out)
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
		shape := FreshShape(n, tt, k, []int{1, 1}, []int{1, 0}, []int{width})
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
	circ, err := circuit.WideMul(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsFor(circ)
	cases := []struct {
		name string
		opts CoreOptions
	}{
		{"nokff", CoreOptions{NoKFF: true}},
		{"robust", CoreOptions{Robust: true}},
		{"nokff+robust", CoreOptions{NoKFF: true, Robust: true}},
	}
	const n, tt, k = 14, 3, 3 // robust: 3·3+2·2+1 = 14 ≤ 14
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			params := core.Params{
				N: n, T: tt, K: k,
				TE: tte.NewSim(modelBits), PKE: pke.NewSim(),
				NoKFF: c.opts.NoKFF, Robust: c.opts.Robust,
			}
			proto, err := core.New(params, circ, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := proto.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			pred := CoreWith(n, tt, k, ShapeOf(circ, n, tt, k), SimSizes(modelBits), c.opts)
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
