package main

import (
	"fmt"
	"math/rand"

	"yosompc/internal/circuit"
	"yosompc/internal/core"
	"yosompc/internal/field"
	"yosompc/internal/paillier"
	"yosompc/internal/pke"
	"yosompc/internal/tte"
)

// workload is one set of inputs the benchmark runs. The sizes are what a
// 2-core box finishes often enough inside one run to report a median:
// an iteration takes 1 to 3 seconds, so a run holds 5 to 15 of them.
type workload struct {
	Name string `json:"name"`
	// Backend is "real" (threshold Paillier + ECIES) or "sim" (the ideal
	// backends with modelled sizes, which skip all big-integer work).
	Backend string `json:"backend"`
	// ModulusBits is the Paillier modulus of a real workload and the
	// modulus the Sim size model assumes otherwise.
	ModulusBits int `json:"modulus_bits"`
	N           int `json:"n"`
	T           int `json:"t"`
	K           int `json:"k"`
	// Width and Depth shape the circuit.WideMul circuit.
	Width int `json:"width"`
	Depth int `json:"depth"`
	// Boardd mirrors every posting into a loopback board server that a
	// monitor tails, one server per iteration.
	Boardd bool `json:"boardd"`
}

// workloads is the benchmark's fixed set; BENCHMARK.json names the same
// four and says why each is there.
var workloads = []workload{
	{Name: "real2048_wide", Backend: "real", ModulusBits: 2048, N: 8, T: 2, K: 2, Width: 2, Depth: 1},
	{Name: "real512_deep", Backend: "real", ModulusBits: 512, N: 16, T: 3, K: 4, Width: 4, Depth: 6},
	{Name: "sim_wide_n256", Backend: "sim", ModulusBits: 2048, N: 256, T: 63, K: 32, Width: 128, Depth: 1},
	{Name: "sim_boardd_n64", Backend: "sim", ModulusBits: 2048, N: 64, T: 15, K: 8, Width: 128, Depth: 2, Boardd: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// bench is a workload made ready to iterate: backends, circuit, the
// inputs drawn from the seed, and the outputs the plaintext evaluator
// says the protocol must produce.
type bench struct {
	w      workload
	te     core.TE
	pke    pke.Scheme
	circ   *circuit.Circuit
	inputs map[int][]field.Element
	want   map[int][]field.Element
	// key is the Paillier key the big-integer probes use: the workload's
	// own on a real workload, the 512-bit test key on a Sim workload
	// (which never touches those layers, so its probes only say whether
	// the layers themselves changed).
	key *paillier.PrivateKey
}

// newBench builds the workload's backends and circuit and draws its
// inputs from seed. The measured program only ever sees the inputs.
func newBench(w workload, seed int64) (*bench, error) {
	b := &bench{w: w}
	switch w.Backend {
	case "real":
		switch w.ModulusBits {
		case 2048:
			b.key = paillier.FixedTestKey2048()
		case 512:
			b.key = paillier.FixedTestKey(0)
		default:
			return nil, fmt.Errorf("workload %s: no fixed %d-bit key", w.Name, w.ModulusBits)
		}
		te, err := tte.NewThreshold(b.key)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		b.te, b.pke = te, pke.NewECIES()
	case "sim":
		b.key = paillier.FixedTestKey(0)
		b.te, b.pke = tte.NewSim(w.ModulusBits), pke.NewSim()
	default:
		return nil, fmt.Errorf("workload %s: unknown backend %q", w.Name, w.Backend)
	}
	circ, err := circuit.WideMul(w.Width, w.Depth)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	b.circ = circ
	rng := rand.New(rand.NewSource(seed))
	b.inputs = map[int][]field.Element{}
	for _, client := range circ.Clients() {
		vals := make([]field.Element, circ.InputCount(client))
		for i := range vals {
			vals[i] = field.New(rng.Uint64())
		}
		b.inputs[client] = vals
	}
	if b.want, err = circ.Eval(b.inputs); err != nil {
		return nil, fmt.Errorf("workload %s: plaintext evaluation: %w", w.Name, err)
	}
	return b, nil
}

// params is the protocol configuration every iteration uses: Workers 0 is
// one worker per CPU, what a user gets without setting anything.
func (b *bench) params() core.Params {
	return core.Params{N: b.w.N, T: b.w.T, K: b.w.K, TE: b.te, PKE: b.pke}
}
