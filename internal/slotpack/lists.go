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
	// Eps is what everyone opens from OffDec: per multiplication gate in
	// gate order, its ε.
	Eps []Run
	// Inputs[c] and Outputs[c] are the input-wire and output-wire λ's of the
	// c-th client, in gate order; a client without any has an empty list.
	Inputs, Outputs [][]Run
	// Layers[l] is what one member of multiplication layer l+1 opens: per
	// batch of the layer, its packed left, right and Γ share. The widths do
	// not depend on the member.
	Layers [][]Run
	// Extract is m′, the number of random values the run extracts from each
	// position of one committee's contributions (chooseExtraction); the widths
	// above are those of its extracted values.
	Extract int
	// Random is the blocks of OffR's step in layout order (Layout): each
	// client's input λ's, then per batch of every layer its gates' output λ's
	// and its 3t helpers.
	Random []int
}

// bounds are the static worst-case plaintext bounds of the protocol's
// ciphertexts for committee size n, corruption bound t and extraction m:
// every committee counted as n verified contributors, every extracted value
// taken as the widest row of the Vandermonde matrix (chooseExtraction), and
// every coefficient that is opened or derived at run time (ε, the packing
// rows) taken as p − 1. The recurrences are the ones TEval applies to
// Bound(), so a run-time bound never exceeds its static one.
type bounds struct {
	t int64
	// m is the extraction the bounds are for.
	m int
	// fresh bounds an extracted value Σ_{i≤n} i^{m−1}·x_i of n encrypted
	// field elements: an input or multiplication output wire's λ, a gate's
	// mask e, a packing helper.
	fresh *big.Int
	pm1   *big.Int
}

// extractionBounds returns the bounds for committee size n and corruption
// bound t at m = 1, 2, … on successive calls. Each call raises every member's
// power i^{m−1} by one multiplication and sums them into
// col = Σ_{i≤n} i^{m−1}, the widest row of M summed over its n columns.
func extractionBounds(n, t int) func() *bounds {
	pm1 := new(big.Int).SetUint64(field.Modulus - 1)
	pows := make([]big.Int, n) // pows[i−1] = i^{m−1}
	var m int
	var idx big.Int
	return func() *bounds {
		m++
		col := new(big.Int)
		for i := range pows {
			if m == 1 {
				pows[i].SetInt64(1)
			} else {
				pows[i].Mul(&pows[i], idx.SetInt64(int64(i+1)))
			}
			col.Add(col, &pows[i])
		}
		fresh := new(big.Int).SetUint64(field.Modulus)
		fresh.Mul(fresh, col)
		return &bounds{t: int64(t), m: m, fresh: fresh, pm1: pm1}
	}
}

// opening bounds ε = λ^α + e for a left input bounded by in.
func (b *bounds) opening(in *big.Int) *big.Int { return new(big.Int).Add(in, b.fresh) }

// gamma bounds c^Γ = ε·c^β + C + (p−1)·c^γ for a right input bounded by
// right, where C ≡ −e·λ^β is Σ_{i≤n} i^{m−1}·(p − e_i)·c^β, below
// fresh·right.
func (b *bounds) gamma(right *big.Int) *big.Int {
	g := new(big.Int).Add(right, b.fresh) // ε·c^β + (p−1)·c^γ
	g.Mul(g, b.pm1)
	return g.Add(g, new(big.Int).Mul(b.fresh, right))
}

// packed bounds one packed share: a row of coefficients below p over a
// batch's values (their bounds summed in sum) and the t helpers.
func (b *bounds) packed(sum *big.Int) *big.Int {
	s := new(big.Int).Mul(b.fresh, big.NewInt(b.t))
	s.Add(s, sum)
	return s.Mul(s, b.pm1)
}

// ListsOf derives the lists of a circuit run with committee size n,
// corruption bound t and packing factor k under a key of capacity bits, at
// the extraction chooseExtraction picks.
func ListsOf(c *circuit.Circuit, n, t, k, capacity int) Lists {
	return chooseExtraction(n, t, k, capacity, func(b *bounds) Lists { return listsOf(c, k, b) })
}

// listsOf is ListsOf at the extraction of b.
func listsOf(c *circuit.Circuit, k int, b *bounds) Lists {
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
	ls := Lists{Extract: b.m}
	for _, gi := range c.MulGates() {
		ls.Eps = appendRun(ls.Eps, b.opening(wire[gates[gi].A]).BitLen())
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
		ls.Random = append(ls.Random, len(c.InputGates(client)))
	}
	ls.Layers = make([][]Run, c.Depth())
	for _, mb := range c.MulBatches(k) {
		ls.Random = append(ls.Random, len(mb.Gates)+3*int(b.t))
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
func FreshLists(n, t, k, capacity int, inputs, outputs, muls []int) Lists {
	return chooseExtraction(n, t, k, capacity, func(b *bounds) Lists { return freshLists(k, b, inputs, outputs, muls) })
}

// freshLists is FreshLists at the extraction of b.
func freshLists(k int, b *bounds, inputs, outputs, muls []int) Lists {
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
	ls := Lists{Extract: b.m, Inputs: clientRuns(inputs), Outputs: clientRuns(outputs), Layers: make([][]Run, len(muls)),
		Random: append([]int(nil), inputs...)}
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
		ls.Eps = append(ls.Eps, Run{Width: opening, Count: int64(m)})
		ls.Layers[l] = make([]Run, 0, len(full)*((m+k-1)/k))
		for i := 0; i < m/k; i++ {
			ls.Layers[l] = append(ls.Layers[l], full...)
			ls.Random = append(ls.Random, k+3*int(b.t))
		}
		if m%k > 0 {
			ls.Layers[l] = append(ls.Layers[l], batch(m%k)...)
			ls.Random = append(ls.Random, m%k+3*int(b.t))
		}
	}
	return ls
}

// chooseExtraction chooses m′ for a run and returns the run's lists at it;
// at(b) derives the lists under the bounds of one extraction. Every random
// value of the offline phase — a wire's λ, a packing helper, a gate's mask
// e — is one row of the m′ × n Vandermonde matrix M_ji = i^{j−1} applied to
// one position of the committee's n contributions (Damgård–Nielsen), so each
// member encrypts about count/m′ values instead of count (Layout). The values
// are uniform mod p whenever m′ of the contributions are honest, since any m′
// columns of M are invertible; the price is width, as an extracted value is
// an integer below p·Σ_{i≤n} i^{m′−1}.
//
// The choice reads public data only — n, t, k, the circuit (through at) and
// the key's capacity — so every party derives the same m′. It raises m′ from
// 1 and stops
//   - at 2k − 1 = n − t − F, the fewest honest posters a committee has within
//     its fail-stop margin F = n − (t + 2(k−1) + 1);
//   - before an m′ whose widest slot exceeds the capacity;
//   - before an m′ that would raise the group count of a list a client or a
//     layer member opens — the layers' shares, which OffRe seals to the
//     roles' KFFs or, where they fit one group (NeedsKFF), OnC1 to the
//     roles' keys, the input λ's, which OffDec seals to their client's setup
//     key, and the output λ's, which OffDec or, for a client whose outputs
//     are not early, OnC1 seals to their client — since each such group is n
//     envelopes on its sealing committee's postings plus one online Combine
//     for its reader, so no reader's openings move (nor which layers get
//     KFFs);
//
// and keeps the m′ that minimises the offline objects a member posts: its
// contributions plus its partials for the ε groups, the only opened groups
// left to move.
func chooseExtraction(n, t, k, capacity int, at func(b *bounds) Lists) Lists {
	next := extractionBounds(n, t)
	best := at(next())
	// recipients is the number of groups clients and layer members open.
	// Each list's count only grows with m, so the sum stays put exactly
	// when every list's does.
	recipients := func(ls Lists) int64 {
		return groups(ls.Inputs, capacity) + groups(ls.Layers, capacity) + groups(ls.Outputs, capacity)
	}
	// objects is what one member of the offline committees posts at ls's
	// extraction that can move with it.
	objects := func(ls Lists) int64 {
		random, beaver := ls.Contributions()
		return int64(random+beaver) + Count(ls.Eps, capacity)
	}
	fixed, least := recipients(best), objects(best)
	// Contributions fall with m to at least floor, at the largest m.
	fewest := best
	fewest.Extract = 2*k - 1
	random, beaver := fewest.Contributions()
	floor := int64(random + beaver)
	for m := 2; m <= 2*k-1; m++ {
		ls := at(next())
		if widest(ls) > capacity || recipients(ls) > fixed {
			break
		}
		// Every width only grows with m and Plan's count only grows with
		// the widths, so no larger m opens fewer ε groups: once these and
		// the fewest contributions reach least, nothing beats it.
		if Count(ls.Eps, capacity)+floor >= least {
			break
		}
		if objs := objects(ls); objs < least {
			best, least = ls, objs
		}
	}
	return best
}

// Layout places blocks of values extracted m at a time on the positions of
// one committee's contributions, each block from a position of its own:
// value j of block b is row j mod m of M applied to position at[b] + j/m.
// A block is what one reader learns — a client's input λ's, a batch's λ's
// and helpers — so no position holds values of two readers (padding a
// block's last position). positions is how many values each member
// contributes.
func Layout(blocks []int, m int) (at []int, positions int) {
	at = make([]int, len(blocks))
	for b, size := range blocks {
		at[b] = positions
		positions += (size + m - 1) / m
	}
	return at, positions
}

// Contributions is how many values one member contributes at the lists'
// extraction: random in OffR's step, beaver in OffB's (an e per
// multiplication gate, one block, as many as Eps's ε's).
func (ls Lists) Contributions() (random, beaver int) {
	_, random = Layout(ls.Random, ls.Extract)
	muls := 0
	for _, r := range ls.Eps {
		muls += int(r.Count)
	}
	_, beaver = Layout([]int{muls}, ls.Extract)
	return random, beaver
}

// NeedsKFF reports whether one member of multiplication layer l+1 opens its
// packed shares in more than one group at capacity. Only then does a
// key-for-future save an online ciphertext: OffRe seals the groups to the
// role's KFF and OnC1 re-encrypts the KFF secret to the role's key. A role
// whose shares fit one group gets that group from OnC1 directly, which posts
// the same bytes online, and a run none of whose layers needs KFFs forms no
// OffRe. Core, the cost model and the operation counts all read the rule
// from here.
func (ls Lists) NeedsKFF(l, capacity int) bool { return Count(ls.Layers[l], capacity) > 1 }

// groups is the number of groups a set of lists is planned into.
func groups(lists [][]Run, capacity int) (total int64) {
	for _, runs := range lists {
		total += Count(runs, capacity)
	}
	return total
}

// widest is the widest slot of any list.
func widest(ls Lists) int {
	w := 0
	for _, lists := range [][][]Run{{ls.Eps}, ls.Inputs, ls.Outputs, ls.Layers} {
		for _, runs := range lists {
			for _, r := range runs {
				w = max(w, r.Width)
			}
		}
	}
	return w
}
