package circuit

import (
	"fmt"

	"yosompc/internal/field"
)

// Optimize rewrites a circuit into an equivalent one with (usually) fewer
// gates:
//
//   - dead-gate elimination: gates whose outputs never reach an output
//     gate are dropped (multiplications are the expensive resource — every
//     dead mul costs Beaver triples, λ randomness and packing slots);
//   - common-subexpression elimination: structurally identical gates on
//     the same input wires are merged (Add/Mul treated as commutative);
//   - algebraic identities: x·1 → x-scaled wiring via ConstMul folding,
//     c₁·(c₂·x) → (c₁c₂)·x, 1·x constmul dropped, 0·x and x−x collapse
//     to an explicit zero wire (0·input) so that the wire count stays
//     well-defined without constant gates.
//
// Optimize never changes the observable outputs: for every input
// assignment, Eval on the result equals Eval on the original.
func Optimize(c *Circuit) (*Circuit, error) {
	// Folding can orphan intermediate gates (3·x survives liveness until
	// 5·(3·x) is rewritten to 15·x), so iterate to a fixpoint; each pass
	// strictly shrinks or stabilizes, and two passes suffice in practice.
	prev := c
	for iter := 0; iter < 4; iter++ {
		next, err := optimizeOnce(prev)
		if err != nil {
			return nil, err
		}
		if len(next.gates) >= len(prev.gates) && iter > 0 {
			return prev, nil
		}
		if len(next.gates) == len(prev.gates) {
			return next, nil
		}
		prev = next
	}
	return prev, nil
}

func optimizeOnce(c *Circuit) (*Circuit, error) {
	live := liveWires(c)
	b := NewBuilder()
	// remap[old wire] = new wire.
	remap := make([]WireID, c.numWires)
	for i := range remap {
		remap[i] = -1
	}
	// cse maps a canonical gate signature to its new output wire.
	cse := map[string]WireID{}
	// constMulOf[w] = (c, src) when w was produced by ConstMul(c, src),
	// enabling c₁·(c₂·x) folding.
	type cm struct {
		c   field.Element
		src WireID
	}
	constMulOf := map[WireID]cm{}
	// constOf[w] holds the value of a public-constant wire, enabling full
	// constant folding through linear and multiplication gates.
	constOf := map[WireID]field.Element{}
	emitConst := func(v field.Element) WireID {
		key := fmt.Sprintf("const %d", v.Uint64())
		if w, ok := cse[key]; ok {
			return w
		}
		w := b.Const(v)
		cse[key] = w
		constOf[w] = v
		return w
	}
	// zeroWire caches the synthesized zero wire (0 · first live wire).
	var zeroWire WireID = -1
	zero := func(anchor WireID) WireID {
		if zeroWire == -1 {
			zeroWire = b.ConstMul(field.Zero, anchor)
		}
		return zeroWire
	}

	emit := func(sig string, mk func() WireID) WireID {
		if w, ok := cse[sig]; ok {
			return w
		}
		w := mk()
		cse[sig] = w
		return w
	}

	for gi, g := range c.gates {
		if g.Kind != KindOutput && !live[g.Out] {
			continue
		}
		switch g.Kind {
		case KindInput:
			// Inputs are never deduplicated or dropped: the client's
			// input layout is part of the interface.
			remap[g.Out] = b.Input(g.Client)
		case KindConst:
			remap[g.Out] = emitConst(g.Const)
		case KindAdd:
			a, bb := remap[g.A], remap[g.B]
			if va, okA := constOf[a]; okA {
				if vb, okB := constOf[bb]; okB {
					remap[g.Out] = emitConst(va.Add(vb))
					continue
				}
			}
			if a > bb { // canonical order: Add commutes
				a, bb = bb, a
			}
			remap[g.Out] = emit(fmt.Sprintf("add %d %d", a, bb), func() WireID { return b.Add(a, bb) })
		case KindSub:
			a, bb := remap[g.A], remap[g.B]
			if va, okA := constOf[a]; okA {
				if vb, okB := constOf[bb]; okB {
					remap[g.Out] = emitConst(va.Sub(vb))
					continue
				}
			}
			if a == bb {
				remap[g.Out] = zero(a)
				continue
			}
			remap[g.Out] = emit(fmt.Sprintf("sub %d %d", a, bb), func() WireID { return b.Sub(a, bb) })
		case KindConstMul:
			src := remap[g.A]
			coeff := g.Const
			// Fold nested constants.
			if inner, ok := constMulOf[src]; ok {
				coeff = coeff.Mul(inner.c)
				src = inner.src
			}
			switch {
			case coeff.IsZero():
				remap[g.Out] = zero(src)
			case coeff == field.One:
				remap[g.Out] = src
			default:
				w := emit(fmt.Sprintf("cmul %d %d", coeff.Uint64(), src),
					func() WireID { return b.ConstMul(coeff, src) })
				remap[g.Out] = w
				constMulOf[w] = cm{c: coeff, src: src}
			}
		case KindMul:
			a, bb := remap[g.A], remap[g.B]
			// A multiplication by a public constant is a free ConstMul;
			// two constants fold entirely.
			if va, okA := constOf[a]; okA {
				if vb, okB := constOf[bb]; okB {
					remap[g.Out] = emitConst(va.Mul(vb))
					continue
				}
				remap[g.Out] = emit(fmt.Sprintf("cmul %d %d", va.Uint64(), bb),
					func() WireID { return b.ConstMul(va, bb) })
				continue
			}
			if vb, okB := constOf[bb]; okB {
				remap[g.Out] = emit(fmt.Sprintf("cmul %d %d", vb.Uint64(), a),
					func() WireID { return b.ConstMul(vb, a) })
				continue
			}
			if a > bb { // canonical order: Mul commutes
				a, bb = bb, a
			}
			remap[g.Out] = emit(fmt.Sprintf("mul %d %d", a, bb), func() WireID { return b.Mul(a, bb) })
		case KindOutput:
			b.Output(remap[g.A], g.Client)
		default:
			return nil, fmt.Errorf("circuit: optimize: gate %d has unknown kind %v", gi, g.Kind)
		}
	}
	return b.Build()
}

// liveWires marks every wire that (transitively) feeds an output gate.
func liveWires(c *Circuit) []bool {
	live := make([]bool, c.numWires)
	// Walk backwards: outputs seed liveness; a gate's inputs become live
	// when its output is.
	for i := len(c.gates) - 1; i >= 0; i-- {
		g := c.gates[i]
		switch g.Kind {
		case KindOutput:
			live[g.A] = true
		case KindInput:
			// Inputs are always retained (interface stability), whether
			// or not they are live.
			live[g.Out] = true
		case KindMul:
			if live[g.Out] {
				live[g.A] = true
				live[g.B] = true
			}
		default:
			if live[g.Out] {
				terms, _ := g.Terms()
				for _, t := range terms {
					live[t.Wire] = true
				}
			}
		}
	}
	return live
}
