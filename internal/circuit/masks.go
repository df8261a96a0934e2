package circuit

import "yosompc/internal/field"

// maskForm is a wire's mask as a combination of fresh masks: coefficient
// per input or multiplication wire, zero coefficients left out.
type maskForm map[WireID]field.Element

// EarlyOutputs returns the clients whose output-wire masks may be opened to
// them before any input is posted.
//
// The masks are those of masked evaluation: every input and multiplication
// wire carries an independent uniform mask λ, a linear gate's λ is the same
// combination of its inputs' λ's (a Const's is 0), and an output's λ is its
// wire's. A client posts μ = x − λ for each input. Whoever knew a non-zero
// combination of another client's input λ's before the input round could
// read that combination of its inputs off the posted μ's and choose its own
// input after: input independence breaks. A set E of clients is early when,
// for every client h with inputs, the output λ's of the clients of E other
// than h, together with every other client's input λ's, span no non-zero
// combination of h's input λ's alone; no coalition of clients other than h
// then learns one. Clients join E greedily in Clients order, a client whose
// outputs would break the condition staying out: its output λ's must wait
// until the inputs are posted.
func (c *Circuit) EarlyOutputs() map[int]bool {
	forms := c.outputMaskForms()
	owner := map[WireID]int{} // input wire → its client
	for client, gates := range c.inputsByClient {
		for _, gi := range gates {
			owner[c.gates[gi].Out] = client
		}
	}
	early := map[int]bool{}
	for _, client := range c.Clients() {
		if len(c.outputsByClient[client]) == 0 {
			continue
		}
		early[client] = true
		for _, h := range c.Clients() {
			if h == client || len(c.inputsByClient[h]) == 0 {
				continue
			}
			var rows []maskForm
			for e := range early {
				if e != h {
					rows = append(rows, forms[e]...)
				}
			}
			if isolates(rows, owner, h) {
				delete(early, client)
				break
			}
		}
	}
	return early
}

// outputMaskForms returns each client's output λ's as mask forms, in gate
// order. A form read for the last time is taken over by its reader, so a
// chain of additions builds one form, not one per link.
func (c *Circuit) outputMaskForms() map[int][]maskForm {
	reads := make([]int, c.numWires)
	for _, g := range c.gates {
		switch g.Kind {
		case KindInput, KindConst:
		case KindOutput, KindConstMul:
			reads[g.A]++
		default:
			reads[g.A]++
			reads[g.B]++
		}
	}
	forms := make([]maskForm, c.numWires)
	// take returns w's form for one read, its own map on the last one.
	take := func(w WireID) maskForm {
		f := forms[w]
		if reads[w]--; reads[w] == 0 {
			forms[w] = nil
			return f
		}
		return clone(f)
	}
	out := map[int][]maskForm{}
	for _, g := range c.gates {
		switch g.Kind {
		case KindInput, KindMul:
			forms[g.Out] = maskForm{g.Out: field.One}
		case KindOutput:
			out[g.Client] = append(out[g.Client], take(g.A))
		default:
			terms, _ := g.Terms()
			f := maskForm{}
			for i, t := range terms {
				tf := take(t.Wire)
				if i == 0 && t.Coeff == field.One {
					f = tf
					continue
				}
				f.addScaled(t.Coeff, tf)
			}
			forms[g.Out] = f
		}
	}
	return out
}

// isolates reports whether rows span a non-zero combination of client h's
// input λ's alone once every other client's input λ is known: rows are
// projected onto the multiplication λ's and h's inputs, and eliminated on
// the multiplication λ's; a row left with none of those but some of h's
// input λ's is such a combination.
func isolates(rows []maskForm, owner map[WireID]int, h int) bool {
	type pivot struct {
		w   WireID
		row maskForm
	}
	var pivots []pivot
	for _, row := range rows {
		r := maskForm{}
		for w, v := range row {
			if client, isInput := owner[w]; !isInput || client == h {
				r[w] = v
			}
		}
		// Pivots are in insertion order and each holds no earlier pivot's
		// wire, so one pass clears every pivot wire from r.
		for _, p := range pivots {
			if v, ok := r[p.w]; ok {
				r.addScaled(v.Neg(), p.row)
			}
		}
		var free WireID = -1
		for w := range r {
			if _, isInput := owner[w]; !isInput {
				free = w
				break
			}
		}
		if free < 0 {
			if len(r) > 0 {
				return true
			}
			continue
		}
		inv := r[free].MustInv()
		for w, v := range r {
			r[w] = v.Mul(inv)
		}
		pivots = append(pivots, pivot{free, r})
	}
	return false
}

// addScaled adds s·g to f, dropping coefficients that cancel.
func (f maskForm) addScaled(s field.Element, g maskForm) {
	for w, v := range g {
		if sum := f[w].Add(s.Mul(v)); sum.IsZero() {
			delete(f, w)
		} else {
			f[w] = sum
		}
	}
}

func clone(f maskForm) maskForm {
	g := make(maskForm, len(f))
	for w, v := range f {
		g[w] = v
	}
	return g
}
