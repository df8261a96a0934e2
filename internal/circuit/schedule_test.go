package circuit

import (
	"fmt"
	"slices"
	"testing"

	"yosompc/internal/field"
)

// widestLayer is the largest number of multiplication gates in any layer — the
// "circuit width" of the paper's amortization assumption.
func widestLayer(c *Circuit) int {
	w := 0
	for _, mb := range c.MulBatches(c.NumMul()) {
		w = max(w, len(mb.Gates))
	}
	return w
}

// scheduleCircuits are the circuits the schedule tests walk: random seeds and
// every library generator, each with and without Optimize's rewrites.
func scheduleCircuits(t *testing.T) map[string]*Circuit {
	t.Helper()
	out := map[string]*Circuit{}
	add := func(name string, c *Circuit, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = c
		opt, err := Optimize(c)
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		out[name+"/optimized"] = opt
	}
	for seed := int64(0); seed < 40; seed++ {
		c, err := Random(2+int(seed%5), 10+int(seed)*3, seed)
		add(fmt.Sprintf("random-%d", seed), c, err)
	}
	// A Const created after a multiplication and read after layer 2 still
	// sits at depth 0.
	b := NewBuilder()
	x, y := b.Input(0), b.Input(1)
	m1 := b.Mul(b.Sub(x, y), b.Sub(y, x))
	three := b.Const(field.New(3))
	m2 := b.Mul(b.ConstMul(field.New(field.Modulus-1), m1), x)
	b.Output(b.Add(b.Mul(m2, b.Add(three, y)), three), 0)
	b.Output(three, 1)
	c, err := b.Build()
	add("late-const", c, err)
	c, err = InnerProduct(4)
	add("inner-product", c, err)
	c, err = PolyEval(4)
	add("poly-eval", c, err)
	c, err = MatVecMul(3)
	add("matvec", c, err)
	c, err = Statistics(4)
	add("statistics", c, err)
	c, err = WideMul(5, 3)
	add("wide-mul", c, err)
	c, err = NonZeroIndicator(0)
	add("nonzero", c, err)
	c, err = NotEqualsIndicator()
	add("not-equals", c, err)
	c, err = EqualsIndicator()
	add("equals", c, err)
	c, err = MembershipIndicator(3)
	add("membership", c, err)
	return out
}

// knownFlagSchedule is the rule the protocol drivers once re-derived at run
// time: after the inputs, and after each multiplication layer opens every
// multiplication gate whose inputs are known, one pass in gate order marks
// known every linear gate whose inputs are. It returns the multiplication
// gates each layer opened (muls[l] for layer l+1) and the linear gates each
// pass marked (linear[d] after layer d, the inputs being layer 0).
func knownFlagSchedule(c *Circuit) (muls, linear [][]int) {
	known := make([]bool, c.NumWires())
	for _, g := range c.Gates() {
		if g.Kind == KindInput {
			known[g.Out] = true
		}
	}
	pass := func() []int {
		var marked []int
		for i, g := range c.Gates() {
			if g.Kind == KindInput || g.Kind == KindMul || g.Kind == KindOutput || known[g.Out] {
				continue
			}
			ready := true
			switch g.Kind {
			case KindAdd, KindSub:
				ready = known[g.A] && known[g.B]
			case KindConstMul:
				ready = known[g.A]
			}
			if ready {
				known[g.Out] = true
				marked = append(marked, i)
			}
		}
		return marked
	}
	linear = append(linear, pass())
	for {
		var opened []int
		for i, g := range c.Gates() {
			if g.Kind == KindMul && !known[g.Out] && known[g.A] && known[g.B] {
				opened = append(opened, i)
			}
		}
		if len(opened) == 0 {
			return muls, linear
		}
		for _, gi := range opened {
			known[c.Gates()[gi].Out] = true
		}
		muls = append(muls, opened)
		linear = append(linear, pass())
	}
}

// TestScheduleMatchesKnownFlagFixpoint checks that LinearAt(d) is exactly
// the set of linear gates the known-flag fixpoint finds after layer d, that
// the layers of MulBatches are the ones it opens, and that the schedule
// covers every gate once.
func TestScheduleMatchesKnownFlagFixpoint(t *testing.T) {
	for name, c := range scheduleCircuits(t) {
		muls, linear := knownFlagSchedule(c)
		if c.Depth() != len(muls) {
			t.Errorf("%s: Depth = %d, fixpoint opens %d layers", name, c.Depth(), len(muls))
			continue
		}
		for d := 0; d <= c.Depth()+1; d++ {
			var want []int
			if d < len(linear) {
				want = linear[d]
			}
			if got := c.LinearAt(d); !slices.Equal(got, want) {
				t.Errorf("%s: LinearAt(%d) = %v, fixpoint marks %v", name, d, got, want)
			}
		}
		for l, mb := range c.MulBatches(c.NumMul()) {
			if mb.Layer != l+1 || !slices.Equal(mb.Gates, muls[l]) {
				t.Errorf("%s: layer %d batch = %+v, fixpoint opens %v", name, l+1, mb, muls[l])
			}
		}
		var all []int
		all = append(all, c.MulGates()...)
		for d := 0; d <= c.Depth(); d++ {
			all = append(all, c.LinearAt(d)...)
		}
		for _, client := range c.Clients() {
			all = append(all, c.InputGates(client)...)
			all = append(all, c.OutputGates(client)...)
		}
		slices.Sort(all)
		for i, gi := range all {
			if gi != i {
				t.Errorf("%s: schedule lists gate %d at position %d; every gate once, got %v", name, gi, i, all)
				break
			}
		}
		if len(all) != len(c.Gates()) {
			t.Errorf("%s: schedule lists %d of %d gates", name, len(all), len(c.Gates()))
		}
	}
}

// TestScheduleReadsOnlyShallowerWires checks the order the schedule promises:
// a linear gate at depth d reads only wires of depth ≤ d, and a
// multiplication gate of layer l only wires of depth < l.
func TestScheduleReadsOnlyShallowerWires(t *testing.T) {
	for name, c := range scheduleCircuits(t) {
		gates := c.Gates()
		depth := make([]int, c.NumWires()) // inputs are at depth 0
		for d := 0; d <= c.Depth(); d++ {
			for _, gi := range c.LinearAt(d) {
				depth[gates[gi].Out] = d
			}
		}
		for _, mb := range c.MulBatches(c.NumMul()) {
			for _, gi := range mb.Gates {
				depth[gates[gi].Out] = mb.Layer
			}
		}
		for d := 0; d <= c.Depth(); d++ {
			for _, gi := range c.LinearAt(d) {
				terms, _ := gates[gi].Terms()
				for _, term := range terms {
					if depth[term.Wire] > d {
						t.Errorf("%s: gate %d at depth %d reads wire %d of depth %d", name, gi, d, term.Wire, depth[term.Wire])
					}
				}
			}
		}
		for _, mb := range c.MulBatches(c.NumMul()) {
			for _, gi := range mb.Gates {
				g := gates[gi]
				if depth[g.A] >= mb.Layer || depth[g.B] >= mb.Layer {
					t.Errorf("%s: mul gate %d of layer %d reads depths %d, %d", name, gi, mb.Layer, depth[g.A], depth[g.B])
				}
			}
		}
	}
}

// TestGateTerms pins each linear kind's terms: the integer coefficients
// TEval takes, and the value they give matching the plain operation.
func TestGateTerms(t *testing.T) {
	a, b := field.New(11), field.New(4)
	vals := []field.Element{a, b}
	c := field.New(field.Modulus - 1)
	for _, tc := range []struct {
		g      Gate
		coeffs []uint64
		want   field.Element
	}{
		{Gate{Kind: KindAdd, A: 0, B: 1}, []uint64{1, 1}, a.Add(b)},
		{Gate{Kind: KindSub, A: 0, B: 1}, []uint64{1, field.Modulus - 1}, a.Sub(b)},
		{Gate{Kind: KindSub, A: 1, B: 0}, []uint64{1, field.Modulus - 1}, b.Sub(a)},
		{Gate{Kind: KindConstMul, A: 1, B: -1, Const: c}, []uint64{field.Modulus - 1}, b.Neg()},
		{Gate{Kind: KindConst, A: -1, B: -1, Const: field.New(9)}, nil, field.New(9)},
	} {
		terms, _ := tc.g.Terms()
		var coeffs []uint64
		for _, term := range terms {
			coeffs = append(coeffs, term.Coeff.Uint64())
		}
		if !slices.Equal(coeffs, tc.coeffs) {
			t.Errorf("%v: coefficients %v, want %v", tc.g.Kind, coeffs, tc.coeffs)
		}
		if got := tc.g.EvalLinear(vals); got != tc.want {
			t.Errorf("%v: value %v, want %v", tc.g.Kind, got, tc.want)
		}
	}
	for _, k := range []GateKind{KindInput, KindMul, KindOutput} {
		if terms, v := (Gate{Kind: k, A: 0, B: 1}).Terms(); terms != nil || !v.IsZero() {
			t.Errorf("%v: terms %v and constant %v, want none", k, terms, v)
		}
	}
}
