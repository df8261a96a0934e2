package core

import (
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/costmodel"
	"yosompc/internal/tte"
)

// The paper's §3.2 naive approach, the strawman keys-for-future replace,
// has no driver mode: costmodel.CoreWith models it, and the KFF ablation
// (bench.KFFAblation) reads it from there. This test derives the naive
// bytes from one measured KFF run and holds the model to them. Without KFFs
// setup mints none, OffRe seals no Steps 5–6 envelope, and OnC1 seals those
// same groups to the layer roles' and clients' keys in place of the KFF
// secrets. So the naive run posts the KFF run's setup less its KFF bytes,
// its offline bytes less S, and its online bytes less K plus S, where S and
// K are the bytes of the envelopes answering Steps 5–6 and the KFF
// distribution, summed over the envelope views the run's groups and KFF
// entries hold.
func TestNaiveModelFromKFFRun(t *testing.T) {
	build := func(c *circuit.Circuit, err error) *circuit.Circuit {
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name    string
		circ    *circuit.Circuit
		n, t, k int
		robust  bool
		s, kff  int64 // pinned S and K, 0 where not pinned
	}{
		{name: "width 16", circ: build(circuit.WideMul(16, 1)), n: 16, t: 3, k: 4},
		{name: "width 256", circ: build(circuit.WideMul(256, 1)), n: 16, t: 3, k: 4, s: 2_112_000, kff: 152_064},
		{name: "depth 2", circ: build(circuit.WideMul(8, 2)), n: 14, t: 3, k: 3},
		{name: "depth 2 robust", circ: build(circuit.WideMul(8, 2)), n: 14, t: 3, k: 3, robust: true},
		// Every client receives Σxᵢ, so no output is early: OnC1 reshares
		// tsk to OnOut.
		{name: "late outputs", circ: build(circuit.Statistics(4)), n: 14, t: 3, k: 3},
	}
	const bits = 2048
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			params := simParams(c.n, c.t, c.k, nil)
			params.TE, params.Robust = tte.NewSim(bits), c.robust
			proto, err := New(params, c.circ, nil)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := proto.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			res, err := prep.Execute(propertyInputs(c.circ, 1))
			if err != nil {
				t.Fatal(err)
			}
			r := prep.r
			var s, kff int64
			sealed := func(groups []group) {
				for _, g := range groups {
					s += int64(g.envs.Size())
				}
			}
			for _, groups := range r.inputOpen {
				sealed(groups)
			}
			for _, layer := range r.layerOpen {
				for _, groups := range layer {
					sealed(groups)
				}
			}
			for _, kl := range r.kffLayer {
				for j := range kl {
					kff += int64(kl[j].delivered.Size())
				}
			}
			for _, entry := range r.kffClient {
				kff += int64(entry.delivered.Size())
			}
			if c.s != 0 && (s != c.s || kff != c.kff) {
				t.Errorf("S = %d B and K = %d B, want %d and %d", s, kff, c.s, c.kff)
			}
			z := costmodel.SimSizes(bits)
			shape := modelShape(r)
			rep := res.Report
			measured := costmodel.Phases{
				Setup:   rep.Phase(comm.PhaseSetup),
				Offline: rep.Phase(comm.PhaseOffline),
				Online:  rep.Phase(comm.PhaseOnline),
			}
			if got := costmodel.CoreWith(c.n, c.t, c.k, shape, z, costmodel.CoreOptions{Robust: c.robust}); got != measured {
				t.Fatalf("KFF model %+v, measured %+v", got, measured)
			}
			naive := costmodel.Phases{
				Setup:   measured.Setup - rep.ByCat[comm.PhaseSetup][comm.CatKFF],
				Offline: measured.Offline - s,
				Online:  measured.Online - kff + s,
			}
			if got := costmodel.CoreWith(c.n, c.t, c.k, shape, z, costmodel.CoreOptions{NoKFF: true, Robust: c.robust}); got != naive {
				t.Errorf("naive model %+v, derived from the KFF run %+v (S = %d B, K = %d B)", got, naive, s, kff)
			}
		})
	}
}

// modelShape is the cost model's Shape of a run: its circuit's counts, the
// lists it opened and the clients whose outputs OnOut sealed.
func modelShape(r *run) costmodel.Shape {
	c := r.p.circ
	s := costmodel.Shape{Muls: c.NumMul(), Depth: c.Depth(), BatchesPerLayer: make([]int, c.Depth()), Opened: r.lists}
	for _, client := range c.Clients() {
		in, out := c.InputCount(client), len(c.OutputGates(client))
		s.Clients++
		s.Inputs += in
		if in > 0 {
			s.InputClients++
		}
		s.Outputs += out
		s.Late = append(s.Late, out > 0 && !r.p.early[client])
	}
	for _, b := range r.batches {
		s.BatchesPerLayer[b.Layer-1]++
	}
	return s
}
