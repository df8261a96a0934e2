package integration

import (
	"fmt"
	"testing"

	"yosompc/internal/baseline"
	"yosompc/internal/circuit"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/tte"
)

// everyGateKind builds one circuit with every gate kind where the schedule
// has a choice to make: a Const read at depth 0 and again after layer 2, a
// Sub in both operand orders, a ConstMul by p−1, a linear gate after the
// last layer, and outputs taken straight from an input and from a Const.
func everyGateKind(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder()
	x, y, z := b.Input(0), b.Input(1), b.Input(0)
	five := b.Const(field.New(5))
	s1 := b.Sub(x, y)
	m1 := b.Mul(s1, b.Sub(y, five))                   // layer 1
	neg := b.ConstMul(field.New(field.Modulus-1), m1) // depth 1
	s3, s4 := b.Sub(neg, s1), b.Sub(s1, neg)
	m2 := b.Mul(s3, z)                                  // layer 2
	m3 := b.Mul(b.Add(m2, five), s4)                    // layer 3
	b.Output(b.ConstMul(field.New(3), b.Add(m3, x)), 0) // depth 3
	b.Output(s4, 0)
	b.Output(x, 1)
	b.Output(five, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", c.Depth())
	}
	return c
}

// TestEveryGateKind runs the every-kind circuit through core (both backends,
// one and two workers) and the CDN baseline (both backends) against the
// plaintext evaluator. The baseline's Sim and Real runs are its only cover
// of a Const wire, which it encrypts under tpk.
func TestEveryGateKind(t *testing.T) {
	circ := everyGateKind(t)
	in := map[int][]field.Element{0: {field.New(10), field.New(7)}, 1: {field.New(3)}}
	want, err := circ.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got map[int][]field.Element) {
		for client, vals := range want {
			if !field.EqualVec(got[client], vals) {
				t.Errorf("%s: client %d got %v, want %v", name, client, got[client], vals)
			}
		}
	}
	backends := []string{"sim", "real"}
	if testing.Short() {
		backends = backends[:1]
	}
	for _, backend := range backends {
		for _, workers := range []int{1, 2} {
			params := simParams(6, 1, 2)
			if backend == "real" {
				params = realParams(t, 6, 1, 2)
			}
			params.Workers = workers
			check(fmt.Sprintf("core/%s/workers=%d", backend, workers), run(t, params, circ, in).Outputs)
		}
		bp := baseline.Params{N: 5, T: 2, TE: tte.NewSim(512), PKE: pke.NewSim()}
		if backend == "real" {
			cp := realParams(t, 5, 2, 1)
			bp.TE, bp.PKE = cp.TE, cp.PKE
		}
		proto, err := baseline.New(bp, circ, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := proto.Run(in)
		if err != nil {
			t.Fatalf("baseline/%s: %v", backend, err)
		}
		check("baseline/"+backend, res.Outputs)
	}
}
