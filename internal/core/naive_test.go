package core

import (
	"strings"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/costmodel"
	"yosompc/internal/pke"
	"yosompc/internal/postlen"
	"yosompc/internal/tte"
)

// The paper's §3.2 naive approach, the strawman keys-for-future replace,
// has no driver mode: costmodel.CoreWith models it, and the KFF ablation
// (bench.KFFAblation) reads it from there. This test derives the naive
// bytes from one measured KFF run and holds the model to them. A client's
// key is known at setup, so both designs seal its input λ's offline (Step
// 5, OffDec's); what a KFF buys is reaching a layer role. The driver gives
// KFFs only to the layers whose shares take more than one group (slotpack's
// NeedsKFF), and forms OffRe only to seal those layers' groups; the naive
// approach gives none. Without KFFs setup mints none, no OffRe is formed,
// and OnC1 seals those same groups to the layer roles' keys in place of the
// KFF secrets, as the driver already does for a one-group layer. So the
// naive run posts the KFF run's setup less its KFF bytes, its offline bytes
// less O, and its online bytes less K plus S, where O is every offline byte
// of OffRe — its role keys, its postings and their proofs — S the bytes of
// the envelopes answering Step 6 and K those of the KFF distribution,
// summed over the envelope views the groups and KFF entries of the run's
// layers with KFFs hold. OffDec reshares tsk to OnC1 in the naive run as it
// does to OffRe in the KFF run, at the same size. At widths 16 and 8 no
// layer has KFFs, and the naive run is the measured one.
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
		bits    int // the Sim key's modulus, 2048 where 0
		// pinned O, S and K, 0 where not pinned
		o, s, kff int64
	}{
		{name: "width 16", circ: build(circuit.WideMul(16, 1)), n: 16, t: 3, k: 4},
		{name: "width 256", circ: build(circuit.WideMul(256, 1)), n: 16, t: 3, k: 4, o: 1_409_024, s: 1_267_200, kff: 84_480},
		{name: "depth 2", circ: build(circuit.WideMul(8, 2)), n: 14, t: 3, k: 3},
		{name: "depth 2 robust", circ: build(circuit.WideMul(8, 2)), n: 14, t: 3, k: 3, robust: true},
		// Under a 512-bit key layer 1 has KFFs, layer 2 none.
		{name: "mixed layers", circ: mixedLayers(t), n: 10, t: 2, k: 2, bits: 512, o: 41_000, s: 23_040, kff: 11_520},
		// Every client receives Σxᵢ, so no output is early: OnC1 seals
		// the output λ's beside the KFF secrets.
		{name: "late outputs", circ: build(circuit.Statistics(4)), n: 14, t: 3, k: 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bits := c.bits
			if bits == 0 {
				bits = 2048
			}
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
			for l, entries := range r.kff {
				for i, entry := range entries {
					sealed(r.layerOpen[l][i])
					kff += int64(entry.secret[0].envs.Size())
				}
			}
			// OffRe's postings and proofs are posted under its role names,
			// and its role keys beside them.
			var o int64
			for _, e := range proto.Board().Entries(0) {
				if e.Phase == comm.PhaseOffline && strings.HasPrefix(e.From, "offRe/") {
					o += int64(len(e.Payload))
				}
			}
			if r.offRe != nil {
				o += int64(c.n * pke.PublicKeySize)
			}
			if c.s != 0 && (o != c.o || s != c.s || kff != c.kff) {
				t.Errorf("O = %d B, S = %d B and K = %d B, want %d, %d and %d", o, s, kff, c.o, c.s, c.kff)
			}
			z := postlen.SimSizes(bits)
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
				Offline: measured.Offline - o,
				Online:  measured.Online - kff + s,
			}
			if got := costmodel.CoreWith(c.n, c.t, c.k, shape, z, costmodel.CoreOptions{NoKFF: true, Robust: c.robust}); got != naive {
				t.Errorf("naive model %+v, derived from the KFF run %+v (O = %d B, S = %d B, K = %d B)", got, naive, o, s, kff)
			}
		})
	}
}

// modelShape is the cost model's Shape of a run: its circuit's counts, the
// lists it opened and the clients whose outputs OnC1 sealed.
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
