package core

import (
	"errors"
	"fmt"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/field"
	"yosompc/internal/yoso"
)

// TestReencryptWindowEdge places the corrupt members of a tsk committee at
// consecutive slots at the end of layer role 1's window — OnC1, which seals
// every layer role its KFF secret or its one share group, and OffRe, which
// seals a KFF layer's groups — malicious and crashed alternately. At
// n = 16, t = 3, k = 4 the layers need q = 10 speakers and a window holds
// s = n − q + t + 1 = 10 members. With n − q = 6 of them corrupt, role 1
// opens from exactly the t + 1 members left and the run's outputs are the
// circuit's; with one more, role 1 has t envelopes and the run fails with
// ErrNotEnough, giving no output. Both on Sim, attested and robust, and on
// the 512-bit key.
func TestReencryptWindowEdge(t *testing.T) {
	const n, tt, k = 16, 3, 4
	const q, s = tt + 2*(k-1) + 1, n - 2*(k-1)
	direct, err := circuit.WideMul(4, 2) // one group per layer role: OnC1 seals it
	if err != nil {
		t.Fatal(err)
	}
	kffLayer, err := circuit.WideMul(16, 1) // several: OffRe seals them to KFFs
	if err != nil {
		t.Fatal(err)
	}
	// corrupt returns the behaviors of a committee whose slots s−c+1 … s,
	// the end of role 1's window, are corrupt.
	corrupt := func(c int) []yoso.Behavior {
		bs := make([]yoso.Behavior, n)
		for j := range c {
			bs[s-c+j] = []yoso.Behavior{yoso.Malicious, yoso.FailStop}[j%2]
		}
		return bs
	}
	for _, backend := range []string{"sim", "512-bit key"} {
		for _, robust := range []bool{false, true} {
			for _, step := range []string{"onC1", "offRe"} {
				for _, c := range []int{n - q, n - q + 1} {
					name := fmt.Sprintf("%s/robust=%v/%s/%d corrupt", backend, robust, step, c)
					t.Run(name, func(t *testing.T) {
						if backend != "sim" && testing.Short() {
							t.Skip("real-crypto end-to-end in -short mode")
						}
						adv := &yoso.Adversary{Chosen: map[string][]yoso.Behavior{step: corrupt(c)}}
						params := simParams(n, tt, k, adv)
						if backend != "sim" {
							params = realParams(t, n, tt, k, adv)
						}
						params.Robust = robust
						circ := direct
						if step == "offRe" {
							circ = kffLayer
						}
						windowEdge(t, params, circ, step, c <= n-q)
					})
				}
			}
		}
	}
}

// windowEdge runs circ under params and checks that layer role 1's first
// group was answered by t + 1 members of committee step, and the outputs,
// when survive; otherwise that the run fails with ErrNotEnough.
func windowEdge(t *testing.T, params Params, circ *circuit.Circuit, step string, survive bool) {
	t.Helper()
	proto, err := New(params, circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := proto.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	r := prep.r
	if (r.offRe != nil) != (step == "offRe") {
		t.Fatalf("OffRe formed: %v, want it only for the KFF layer", r.offRe != nil)
	}
	in := propertyInputs(circ, 3)
	res, err := prep.Execute(in)
	if !survive {
		if !errors.Is(err, ErrNotEnough) || res != nil {
			t.Fatalf("Execute = %v, %v; want ErrNotEnough and no result", res, err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	want, err := circ.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	for client, vals := range want {
		if !field.EqualVec(res.Outputs[client], vals) {
			t.Errorf("client %d outputs %v, want %v", client, res.Outputs[client], vals)
		}
	}
	g := r.layerOpen[0][0][0]
	if step == "onC1" && r.kff[0] != nil {
		g = r.kff[0][0].secret[0]
	}
	if got := g.envs.Len(); got != params.T+1 {
		t.Errorf("%s answered layer role 1 with %d envelopes, want t + 1 = %d", step, got, params.T+1)
	}
}
