package integration

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"yosompc/internal/baseline"
	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/core"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/postlen"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// TestPostingsHaveTheirScheduledLength: a posting's length is schedule data
// (internal/postlen), and a malicious member posts that many zero bytes, so
// in a run with one malicious and one crashed member in every committee,
// every honest posting of a step must be exactly as long as the malicious
// one. Clients are never corrupted: each client's input posting is checked
// against its function directly.
//
// On Sim every step of both protocols is covered: core's OffR, OffB, OffDec,
// OffRe (the circuit has a layer with keys-for-future and one without),
// OnC1 and μ layers, attested and robust, and the baseline's bOff1, bOff2,
// layer and output committees. OffRe and OnC1 answer each layer role from
// its window, s = n − 2(k−1) = 8 of the 10 members, so a member of either
// seals 8 roles' worth: OffRe layer 1's two groups per role beside its
// hand-off, OnC1 a KFF secret per layer-1 role and a group per layer-2 role
// beside the late outputs. On the 512-bit key, whose tsk postings are laid
// out in nominal widths, the ciphertext bundles and μ postings are checked;
// their widths are exact there too.
func TestPostingsHaveTheirScheduledLength(t *testing.T) {
	b := circuit.NewBuilder()
	x0, x1, y0, y1 := b.Input(0), b.Input(0), b.Input(1), b.Input(1)
	b.Output(b.Mul(b.Mul(x0, y0), b.Mul(x1, y1)), 0)
	b.Output(b.Mul(x0, y1), 1)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := map[int][]field.Element{0: {field.New(3), field.New(4)}, 1: {field.New(5), field.New(6)}}
	const n, tt, k = 10, 2, 2
	adversary := func() *yoso.Adversary { return yoso.NewAdversary(1, 1, 61) }
	// The test keys' moduli are 512 bits, so SimSizes(512) are their widths.
	z := postlen.SimSizes(512)
	mu := func(count int) postlen.Posting { return postlen.Posting{Elements: count} }
	coreSteps := []string{"offR", "offB", "offDec", "offRe", "onC1", "on-layer1", "on-layer2"}
	const s = n - 2*(k-1)
	late := 0 // each client's outputs are one group
	for _, client := range circ.Clients() {
		if len(circ.OutputGates(client)) > 0 && !circ.EarlyOutputs()[client] {
			late++
		}
	}
	windowed := map[string]postlen.Posting{
		"offRe " + string(comm.CatReencrypt): {Sealed: 2 * s, SubShares: n},
		"onC1 " + string(comm.CatKFF):        {Sealed: 2*s + late},
	}

	runCore := func(params core.Params) *transport.Board {
		params.Adversary = adversary()
		proto, err := core.New(params, circ, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := proto.Run(in); err != nil {
			t.Fatal(err)
		}
		return proto.Board()
	}
	robust := simParams(n, tt, k)
	robust.Robust = true
	cases := []struct {
		name  string
		board func() *transport.Board
		// steps are the committees whose postings in cats (every category
		// but proofs and role keys when nil) are checked; input is a
		// client's posting of count inputs.
		steps []string
		cats  []comm.Category
		input func(count int) postlen.Posting
	}{
		{"core sim attested", func() *transport.Board { return runCore(simParams(n, tt, k)) }, coreSteps, nil, mu},
		{"core sim robust", func() *transport.Board { return runCore(robust) }, coreSteps, nil, mu},
		{"core 512-bit key", func() *transport.Board { return runCore(realParams(t, n, tt, k)) },
			[]string{"offR", "offB", "on-layer1", "on-layer2"}, []comm.Category{comm.CatLambda, comm.CatBeaver, comm.CatMu}, mu},
		{"baseline sim", func() *transport.Board {
			proto, err := baseline.New(baseline.Params{N: n, T: tt, TE: tte.NewSim(512), PKE: pke.NewSim(), Adversary: adversary()}, circ, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := proto.Run(in); err != nil {
				t.Fatal(err)
			}
			return proto.Board()
		}, []string{"bOff1", "bOff2", "bLayer1", "bLayer2", "bOut"}, nil,
			func(count int) postlen.Posting { return postlen.Posting{Ciphertexts: count} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.cats != nil && testing.Short() {
				t.Skip("real backend")
			}
			lengths := map[string][]int{} // committee/category → posting lengths
			for _, e := range c.board().Entries(0) {
				committee, index, ok := strings.Cut(e.From, "/")
				switch {
				case !ok || e.Category == comm.CatProof || e.Category == comm.CatRoleKeys:
				case committee == "client":
					var client int
					fmt.Sscan(index, &client)
					if want := c.input(circ.InputCount(client)).Len(z); e.Size != want {
						t.Errorf("%s posted %d B, its function gives %d", e.From, e.Size, want)
					}
				case c.cats == nil || slices.Contains(c.cats, e.Category):
					key := committee + " " + string(e.Category)
					lengths[key] = append(lengths[key], e.Size)
				}
			}
			seen := map[string]bool{}
			for key, ls := range lengths {
				seen[strings.Fields(key)[0]] = true
				if len(ls) != n-1 {
					t.Errorf("%s: %d postings, want %d (one member crashed)", key, len(ls), n-1)
				}
				for _, l := range ls[1:] {
					if l != ls[0] {
						t.Errorf("%s: postings of %v B, the malicious member's zeros among them", key, ls)
						break
					}
				}
				if p, ok := windowed[key]; ok && c.cats == nil {
					seen[key] = true
					if ls[0] != p.Len(z) {
						t.Errorf("%s: postings of %d B, want %d: %d sealed in the windows", key, ls[0], p.Len(z), p.Sealed)
					}
				}
			}
			for _, step := range c.steps {
				if !seen[step] {
					t.Errorf("no posting of %s checked", step)
				}
			}
			for key := range windowed {
				if strings.HasPrefix(c.name, "core sim") && !seen[key] {
					t.Errorf("no posting of %s checked against its window", key)
				}
			}
		})
	}
}
