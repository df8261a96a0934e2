package circuit

import (
	"fmt"
	"math/rand"

	"yosompc/internal/field"
)

// Standard circuit generators used by the examples and the benchmark
// harness. Each returns the circuit together with a description of the
// client layout it expects.

// InnerProduct builds ⟨x, y⟩ for two clients holding vectors of length n;
// client 0 holds x, client 1 holds y, client 0 receives the result.
func InnerProduct(n int) (*Circuit, error) {
	if n < 1 {
		return nil, fmt.Errorf("circuit: inner product needs n ≥ 1, got %d", n)
	}
	b := NewBuilder()
	xs := make([]WireID, n)
	ys := make([]WireID, n)
	for i := 0; i < n; i++ {
		xs[i] = b.Input(0)
	}
	for i := 0; i < n; i++ {
		ys[i] = b.Input(1)
	}
	acc := b.Mul(xs[0], ys[0])
	for i := 1; i < n; i++ {
		acc = b.Add(acc, b.Mul(xs[i], ys[i]))
	}
	b.Output(acc, 0)
	return b.Build()
}

// PolyEval builds the evaluation of client 0's degree-d polynomial (d+1
// coefficient inputs) at client 1's secret point; client 1 receives the
// result. Horner's rule gives multiplicative depth d.
func PolyEval(d int) (*Circuit, error) {
	if d < 1 {
		return nil, fmt.Errorf("circuit: poly eval needs degree ≥ 1, got %d", d)
	}
	b := NewBuilder()
	coeffs := make([]WireID, d+1)
	for i := range coeffs {
		coeffs[i] = b.Input(0)
	}
	x := b.Input(1)
	acc := coeffs[d]
	for i := d - 1; i >= 0; i-- {
		acc = b.Add(b.Mul(acc, x), coeffs[i])
	}
	b.Output(acc, 1)
	return b.Build()
}

// MatVecMul builds A·x for client 0's d×d matrix and client 1's d-vector;
// client 1 receives the d results. Width d², depth 1.
func MatVecMul(d int) (*Circuit, error) {
	if d < 1 {
		return nil, fmt.Errorf("circuit: matvec needs d ≥ 1, got %d", d)
	}
	b := NewBuilder()
	mat := make([][]WireID, d)
	for i := range mat {
		mat[i] = make([]WireID, d)
		for j := range mat[i] {
			mat[i][j] = b.Input(0)
		}
	}
	vec := make([]WireID, d)
	for j := range vec {
		vec[j] = b.Input(1)
	}
	for i := 0; i < d; i++ {
		acc := b.Mul(mat[i][0], vec[0])
		for j := 1; j < d; j++ {
			acc = b.Add(acc, b.Mul(mat[i][j], vec[j]))
		}
		b.Output(acc, 1)
	}
	return b.Build()
}

// Statistics builds n·Σx_i² − (Σx_i)² — n² times the population variance —
// over one input per client for clients 0..n-1; every client receives both
// the sum Σx_i and the variance numerator. This is the federated-statistics
// workload of the privatestats example.
func Statistics(n int) (*Circuit, error) {
	if n < 2 {
		return nil, fmt.Errorf("circuit: statistics needs n ≥ 2 clients, got %d", n)
	}
	b := NewBuilder()
	xs := make([]WireID, n)
	for i := range xs {
		xs[i] = b.Input(i)
	}
	sum := xs[0]
	for i := 1; i < n; i++ {
		sum = b.Add(sum, xs[i])
	}
	sumSq := b.Mul(xs[0], xs[0])
	for i := 1; i < n; i++ {
		sumSq = b.Add(sumSq, b.Mul(xs[i], xs[i]))
	}
	nSumSq := b.ConstMul(field.New(uint64(n)), sumSq)
	variance := b.Sub(nSumSq, b.Mul(sum, sum))
	for i := 0; i < n; i++ {
		b.Output(sum, i)
		b.Output(variance, i)
	}
	return b.Build()
}

// WideMul builds `width` independent products per layer for `depth` layers
// (layer l multiplies layer l-1's outputs pairwise in a ring). It is the
// canonical wide-circuit benchmark shape: width O(n) is the paper's
// amortization assumption.
func WideMul(width, depth int) (*Circuit, error) {
	if width < 2 || depth < 1 {
		return nil, fmt.Errorf("circuit: wide mul needs width ≥ 2 and depth ≥ 1, got %d×%d", width, depth)
	}
	b := NewBuilder()
	cur := make([]WireID, width)
	for i := range cur {
		cur[i] = b.Input(i % 2)
	}
	for l := 0; l < depth; l++ {
		next := make([]WireID, width)
		for i := range next {
			next[i] = b.Mul(cur[i], cur[(i+1)%width])
		}
		cur = next
	}
	for _, w := range cur {
		b.Output(w, 0)
	}
	return b.Build()
}

// Random builds a random circuit with nInputs inputs split across two
// clients and approximately nGates gates (a mix of add/sub/constmul/mul),
// with a single output to client 0. The generator is deterministic in seed,
// so failures reproduce.
func Random(nInputs, nGates int, seed int64) (*Circuit, error) {
	if nInputs < 2 {
		return nil, fmt.Errorf("circuit: random circuit needs ≥ 2 inputs, got %d", nInputs)
	}
	// Deliberately deterministic in seed so failing circuits reproduce;
	// circuit topology is public data, never secret randomness.
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	wires := make([]WireID, 0, nInputs+nGates)
	for i := 0; i < nInputs; i++ {
		wires = append(wires, b.Input(i%2))
	}
	pick := func() WireID { return wires[rng.Intn(len(wires))] }
	for g := 0; g < nGates; g++ {
		var w WireID
		switch rng.Intn(4) {
		case 0:
			w = b.Add(pick(), pick())
		case 1:
			w = b.Sub(pick(), pick())
		case 2:
			w = b.ConstMul(field.New(uint64(rng.Int63n(1000)+1)), pick())
		default:
			w = b.Mul(pick(), pick())
		}
		wires = append(wires, w)
	}
	b.Output(wires[len(wires)-1], 0)
	return b.Build()
}

// NonZeroIndicator builds the Fermat indicator x^(p−1), which is 1 for
// x ≠ 0 and 0 for x = 0 — the standard way to get boolean tests out of
// pure field arithmetic. Client `client` supplies x and receives the
// indicator. Square-and-multiply over the exponent p−1 costs ~120
// multiplications at depth ~61; every multiplication layer gets its own
// committee, so this circuit also doubles as a deep-schedule stress test.
func NonZeroIndicator(client int) (*Circuit, error) {
	b := NewBuilder()
	x := b.Input(client)
	out := nonZeroGadget(b, x)
	b.Output(out, client)
	return b.Build()
}

// NotEqualsIndicator builds (a−b)^(p−1): 0 when client 0's input equals
// client 1's input, 1 otherwise. Client 0 receives the indicator.
func NotEqualsIndicator() (*Circuit, error) {
	b := NewBuilder()
	a := b.Input(0)
	bb := b.Input(1)
	d := b.Sub(a, bb)
	b.Output(nonZeroGadget(b, d), 0) // 0 ⇔ equal, 1 ⇔ different
	return b.Build()
}

// EqualsIndicator builds 1 − (a−b)^(p−1): 1 when client 0's input equals
// client 1's input, 0 otherwise, using a public constant-1 wire.
func EqualsIndicator() (*Circuit, error) {
	b := NewBuilder()
	a := b.Input(0)
	bb := b.Input(1)
	one := b.Const(field.One)
	d := b.Sub(a, bb)
	b.Output(b.Sub(one, nonZeroGadget(b, d)), 0)
	return b.Build()
}

// MembershipIndicator builds the private-set-membership test: client 0
// holds a query x, client 1 holds m set elements; client 0 learns 1 iff x
// is in the set, via 1 − Π (1 − eq(x, s_i)). The Fermat equality gadget
// makes this ~120·m multiplications — a deep, narrow stress workload.
func MembershipIndicator(m int) (*Circuit, error) {
	if m < 1 {
		return nil, fmt.Errorf("circuit: membership needs m ≥ 1, got %d", m)
	}
	b := NewBuilder()
	x := b.Input(0)
	set := make([]WireID, m)
	for i := range set {
		set[i] = b.Input(1)
	}
	one := b.Const(field.One)
	// Π (1 − eq_i) = Π neq_i: 1 iff x matches no element.
	acc := nonZeroGadget(b, b.Sub(x, set[0]))
	for i := 1; i < m; i++ {
		acc = b.Mul(acc, nonZeroGadget(b, b.Sub(x, set[i])))
	}
	b.Output(b.Sub(one, acc), 0)
	return b.Build()
}

// nonZeroGadget emits the square-and-multiply chain for x^(p−1).
// p − 1 = 2^61 − 2 = 0b111…110 (sixty 1-bits then a 0), so Horner over
// the bits from most significant to least significant gives depth ≤ 122.
func nonZeroGadget(b *Builder, x WireID) WireID {
	exp := field.Modulus - 1
	// Find the top bit.
	top := 63
	for top >= 0 && (exp>>uint(top))&1 == 0 {
		top--
	}
	acc := x // handles the leading 1-bit
	for i := top - 1; i >= 0; i-- {
		acc = b.Mul(acc, acc)
		if (exp>>uint(i))&1 == 1 {
			acc = b.Mul(acc, x)
		}
	}
	return acc
}
