package slotpack

import (
	"math/big"

	"yosompc/internal/circuit"
	"yosompc/internal/field"
)

// Lists holds, for every step in which one reader opens several ciphertexts,
// the static slot widths of what it opens, in opening order. They are the
// input of Plan (core) and Count (costmodel).
type Lists struct {
	// EpsDelta is what everyone opens from OffDec: per multiplication gate in
	// gate order, ε then δ.
	EpsDelta []Run
	// Inputs[c] and Outputs[c] are the input-wire and output-wire λ's of the
	// c-th client, in gate order; a client without any has an empty list.
	Inputs, Outputs [][]Run
	// Layers[l] is what one member of multiplication layer l+1 opens: per
	// batch of the layer, its packed left, right and Γ share. The widths do
	// not depend on the member.
	Layers [][]Run
}

// bounds are the static worst-case plaintext bounds of the protocol's
// ciphertexts for committee size n and corruption bound t: every committee
// counted as n verified contributors and every coefficient that is opened or
// derived at run time (ε, δ, the packing rows) taken as p − 1. The
// recurrences are the ones TEval applies to Bound(), so a run-time bound
// never exceeds its static one.
type bounds struct {
	t int64
	// fresh bounds a sum of n encrypted field elements: an input or
	// multiplication output wire's λ, a Beaver a or b part, a packing helper.
	fresh *big.Int
	// prod bounds a Beaver c part: n contributions b_i·c^a with b_i ≤ p − 1.
	prod *big.Int
	pm1  *big.Int
}

func newBounds(n, t int) *bounds {
	pm1 := new(big.Int).SetUint64(field.Modulus - 1)
	fresh := new(big.Int).SetUint64(field.Modulus)
	fresh.Mul(fresh, big.NewInt(int64(n)))
	prod := new(big.Int).Mul(pm1, fresh)
	prod.Mul(prod, big.NewInt(int64(n)))
	return &bounds{t: int64(t), fresh: fresh, prod: prod, pm1: pm1}
}

// opening bounds ε = λ^α + a (or δ = λ^β + b) for an input wire bounded by in.
func (b *bounds) opening(in *big.Int) *big.Int { return new(big.Int).Add(in, b.fresh) }

// gamma bounds c^Γ = ε·c^β + (p−δ)·c^a + c^c + (p−1)·c^γ for a right input
// bounded by right.
func (b *bounds) gamma(right *big.Int) *big.Int {
	g := new(big.Int).Add(right, b.fresh) // ε·c^β + (p−δ)·c^a
	g.Add(g, b.fresh)                     // (p−1)·c^γ
	g.Mul(g, b.pm1)
	return g.Add(g, b.prod)
}

// packed bounds one packed share: a row of coefficients below p over a
// batch's values (their bounds summed in sum) and the t helpers.
func (b *bounds) packed(sum *big.Int) *big.Int {
	s := new(big.Int).Mul(b.fresh, big.NewInt(b.t))
	s.Add(s, sum)
	return s.Mul(s, b.pm1)
}

// ListsOf derives the lists of a circuit run with committee size n,
// corruption bound t and packing factor k.
func ListsOf(c *circuit.Circuit, n, t, k int) Lists {
	b := newBounds(n, t)
	gates := c.Gates()
	// An input or multiplication output wire is fresh; a linear one is its
	// gate's terms applied to their wires' bounds, depth by depth.
	wire := make([]*big.Int, c.NumWires())
	for w := range wire {
		wire[w] = b.fresh
	}
	for d := 0; d <= c.Depth(); d++ {
		for _, gi := range c.LinearAt(d) {
			terms, _ := gates[gi].Terms()
			sum := new(big.Int)
			for _, term := range terms {
				sum.Add(sum, new(big.Int).Mul(term.Coeff.Big(), wire[term.Wire]))
			}
			wire[gates[gi].Out] = sum
		}
	}
	var ls Lists
	for _, gi := range c.MulGates() {
		g := gates[gi]
		ls.EpsDelta = appendRun(ls.EpsDelta, b.opening(wire[g.A]).BitLen())
		ls.EpsDelta = appendRun(ls.EpsDelta, b.opening(wire[g.B]).BitLen())
	}
	for _, client := range c.Clients() {
		var in, out []Run
		for _, gi := range c.InputGates(client) {
			in = appendRun(in, wire[gates[gi].Out].BitLen())
		}
		for _, gi := range c.OutputGates(client) {
			out = appendRun(out, wire[gates[gi].A].BitLen())
		}
		ls.Inputs = append(ls.Inputs, in)
		ls.Outputs = append(ls.Outputs, out)
	}
	ls.Layers = make([][]Run, c.Depth())
	for _, mb := range c.MulBatches(k) {
		left, right, gamma := new(big.Int), new(big.Int), new(big.Int)
		for _, gi := range mb.Gates {
			g := gates[gi]
			left.Add(left, wire[g.A])
			right.Add(right, wire[g.B])
			gamma.Add(gamma, b.gamma(wire[g.B]))
		}
		l := mb.Layer - 1
		for _, sum := range []*big.Int{left, right, gamma} {
			ls.Layers[l] = appendRun(ls.Layers[l], b.packed(sum).BitLen())
		}
	}
	return ls
}

// FreshLists is ListsOf for a circuit known only by its shape, every wire
// taken as a fresh one: inputs[c] and outputs[c] count client c's input and
// output gates and muls[l] the multiplication gates of layer l+1, batched k
// at a time.
func FreshLists(n, t, k int, inputs, outputs, muls []int) Lists {
	b := newBounds(n, t)
	fresh := b.fresh.BitLen()
	clientRuns := func(counts []int) [][]Run {
		out := make([][]Run, len(counts))
		for c, count := range counts {
			if count > 0 {
				out[c] = []Run{{Width: fresh, Count: int64(count)}}
			}
		}
		return out
	}
	ls := Lists{Inputs: clientRuns(inputs), Outputs: clientRuns(outputs), Layers: make([][]Run, len(muls))}
	opening := b.opening(b.fresh).BitLen()
	gamma := b.gamma(b.fresh)
	// batch is the left/right/Γ runs of a batch of size gates.
	batch := func(size int) []Run {
		s := big.NewInt(int64(size))
		return []Run{
			{Width: b.packed(new(big.Int).Mul(s, b.fresh)).BitLen(), Count: 2},
			{Width: b.packed(s.Mul(s, gamma)).BitLen(), Count: 1},
		}
	}
	full := batch(k)
	for l, m := range muls {
		if m == 0 {
			continue
		}
		ls.EpsDelta = append(ls.EpsDelta, Run{Width: opening, Count: 2 * int64(m)})
		for i := 0; i < m/k; i++ {
			ls.Layers[l] = append(ls.Layers[l], full...)
		}
		if m%k > 0 {
			ls.Layers[l] = append(ls.Layers[l], batch(m%k)...)
		}
	}
	return ls
}
