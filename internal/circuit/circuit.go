// Package circuit represents arithmetic circuits over the MPC field and
// owns their schedule: what a linear gate computes (Gate.Terms), which
// gates sit at each multiplicative depth (MulGates, LinearAt), and the
// batch layout the packed protocol consumes — multiplication gates grouped
// by depth into batches of at most k, the packing factor.
package circuit

import (
	"errors"
	"fmt"
	"slices"

	"yosompc/internal/field"
)

// WireID identifies a wire; wires are numbered densely from 0 in creation
// order.
type WireID int

// GateKind enumerates gate types.
type GateKind int

// Gate kinds. Add, Sub and ConstMul are "free" (linear) gates; Mul consumes
// preprocessed material; Input/Output delimit client interaction.
const (
	KindInput GateKind = iota + 1
	KindAdd
	KindSub
	KindConstMul
	KindMul
	KindOutput
	// KindConst introduces a public constant wire: its value is part of
	// the circuit description, carries no secret (λ = 0), and costs no
	// communication.
	KindConst
)

// String implements fmt.Stringer.
func (k GateKind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindAdd:
		return "add"
	case KindSub:
		return "sub"
	case KindConstMul:
		return "constmul"
	case KindMul:
		return "mul"
	case KindOutput:
		return "output"
	case KindConst:
		return "const"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Gate is one circuit gate. Out is unset (-1) for Output gates.
type Gate struct {
	Kind GateKind
	// A and B are input wires; B is unset (-1) except for Add/Sub/Mul.
	A, B WireID
	// Const is the scalar of a ConstMul gate.
	Const field.Element
	// Out is the output wire.
	Out WireID
	// Client owns the value of an Input or Output gate.
	Client int
}

// Term is one summand, Coeff·Wire, of a linear gate.
type Term struct {
	Coeff field.Element
	Wire  WireID
}

// Terms is what a linear gate computes: Σ Coeff·Wire over its terms, plus
// the returned constant. Add is (1, 1), Sub is (1, p−1), ConstMul is (c),
// and Const has no terms and its value as the constant. Read as integers
// below p, the coefficients are the ones TEval takes and the slot-width
// bounds multiply by. Input, Mul and Output gates are not linear: they
// have neither.
func (g Gate) Terms() ([]Term, field.Element) {
	switch g.Kind {
	case KindAdd:
		return []Term{{field.One, g.A}, {field.One, g.B}}, field.Zero
	case KindSub:
		return []Term{{field.One, g.A}, {field.One.Neg(), g.B}}, field.Zero
	case KindConstMul:
		return []Term{{g.Const, g.A}}, field.Zero
	case KindConst:
		return nil, g.Const
	}
	return nil, field.Zero
}

// EvalLinear is the value of a linear gate given the values on every wire
// it reads.
func (g Gate) EvalLinear(vals []field.Element) field.Element {
	terms, v := g.Terms()
	for _, t := range terms {
		v = v.Add(t.Coeff.Mul(vals[t.Wire]))
	}
	return v
}

// Circuit is an immutable arithmetic circuit in topological order.
type Circuit struct {
	gates    []Gate
	numWires int
	// inputsByClient[c] lists input gate indices of client c in order.
	inputsByClient map[int][]int
	// outputsByClient[c] lists output gate indices of client c in order.
	outputsByClient map[int][]int
	// The schedule, as gate indices in topological order: every
	// multiplication gate, those of layer l+1 (mulAt[l]), and the linear
	// gates of depth d (linearAt[d]).
	mulGates []int
	mulAt    [][]int
	linearAt [][]int
}

// Errors returned by the builder and evaluator.
var (
	ErrNoOutputs   = errors.New("circuit: no output gates")
	ErrWrongInputs = errors.New("circuit: client inputs do not match the circuit")
)

// Builder assembles a circuit. Methods panic on structurally invalid wires
// (using a wire before creating it), since that is a programming error, and
// Build returns errors for semantic problems.
type Builder struct {
	gates    []Gate
	numWires int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) newWire() WireID {
	w := WireID(b.numWires)
	b.numWires++
	return w
}

func (b *Builder) checkWire(w WireID) {
	if int(w) < 0 || int(w) >= b.numWires {
		panic(fmt.Sprintf("circuit: %v used before definition", w))
	}
}

// Input adds an input gate owned by client and returns its wire.
func (b *Builder) Input(client int) WireID {
	out := b.newWire()
	b.gates = append(b.gates, Gate{Kind: KindInput, A: -1, B: -1, Out: out, Client: client})
	return out
}

// Add returns a wire carrying a + b.
func (b *Builder) Add(a, bb WireID) WireID {
	b.checkWire(a)
	b.checkWire(bb)
	out := b.newWire()
	b.gates = append(b.gates, Gate{Kind: KindAdd, A: a, B: bb, Out: out})
	return out
}

// Sub returns a wire carrying a - b.
func (b *Builder) Sub(a, bb WireID) WireID {
	b.checkWire(a)
	b.checkWire(bb)
	out := b.newWire()
	b.gates = append(b.gates, Gate{Kind: KindSub, A: a, B: bb, Out: out})
	return out
}

// ConstMul returns a wire carrying c·a.
func (b *Builder) ConstMul(c field.Element, a WireID) WireID {
	b.checkWire(a)
	out := b.newWire()
	b.gates = append(b.gates, Gate{Kind: KindConstMul, A: a, B: -1, Const: c, Out: out})
	return out
}

// Mul returns a wire carrying a · b.
func (b *Builder) Mul(a, bb WireID) WireID {
	b.checkWire(a)
	b.checkWire(bb)
	out := b.newWire()
	b.gates = append(b.gates, Gate{Kind: KindMul, A: a, B: bb, Out: out})
	return out
}

// Output marks wire a as an output delivered to client.
func (b *Builder) Output(a WireID, client int) {
	b.checkWire(a)
	b.gates = append(b.gates, Gate{Kind: KindOutput, A: a, B: -1, Out: -1, Client: client})
}

// Const returns a wire carrying the public constant c.
func (b *Builder) Const(c field.Element) WireID {
	out := b.newWire()
	b.gates = append(b.gates, Gate{Kind: KindConst, A: -1, B: -1, Const: c, Out: out})
	return out
}

// Build finalizes the circuit and computes its schedule. A multiplication
// gate sits one layer above its deeper input; a linear gate at the depth of
// its deepest input (a Const at 0), so its value is known once that layer
// is.
func (b *Builder) Build() (*Circuit, error) {
	c := &Circuit{
		gates:           append([]Gate(nil), b.gates...),
		numWires:        b.numWires,
		inputsByClient:  map[int][]int{},
		outputsByClient: map[int][]int{},
	}
	depth := make([]int, b.numWires) // the multiplicative depth of each wire
	for i, g := range c.gates {
		switch g.Kind {
		case KindInput:
			c.inputsByClient[g.Client] = append(c.inputsByClient[g.Client], i)
		case KindOutput:
			c.outputsByClient[g.Client] = append(c.outputsByClient[g.Client], i)
		case KindMul:
			d := max(depth[g.A], depth[g.B]) + 1
			depth[g.Out] = d
			if d > len(c.mulAt) {
				c.mulAt = append(c.mulAt, nil)
			}
			c.mulAt[d-1] = append(c.mulAt[d-1], i)
			c.mulGates = append(c.mulGates, i)
		case KindAdd, KindSub, KindConstMul, KindConst:
			terms, _ := g.Terms()
			d := 0
			for _, t := range terms {
				d = max(d, depth[t.Wire])
			}
			depth[g.Out] = d
			for d >= len(c.linearAt) {
				c.linearAt = append(c.linearAt, nil)
			}
			c.linearAt[d] = append(c.linearAt[d], i)
		default:
			return nil, fmt.Errorf("circuit: gate %d has unknown kind %v", i, g.Kind)
		}
	}
	if len(c.outputsByClient) == 0 {
		return nil, ErrNoOutputs
	}
	return c, nil
}

// Gates returns the gates in topological order. The slice must not be
// mutated.
func (c *Circuit) Gates() []Gate { return c.gates }

// NumWires returns the number of wires.
func (c *Circuit) NumWires() int { return c.numWires }

// NumMul returns the number of multiplication gates.
func (c *Circuit) NumMul() int { return len(c.mulGates) }

// Depth returns the multiplicative depth of the circuit.
func (c *Circuit) Depth() int { return len(c.mulAt) }

// MulGates returns the indices of the multiplication gates in gate order.
// The slice must not be mutated.
func (c *Circuit) MulGates() []int { return c.mulGates }

// LinearAt returns the indices of the linear gates of multiplicative depth
// d, in gate order: the gates whose values anyone computes once the inputs
// (d = 0) or multiplication layer d are known, every wire they read being
// of depth at most d. The slice must not be mutated.
func (c *Circuit) LinearAt(d int) []int {
	if d < 0 || d >= len(c.linearAt) {
		return nil
	}
	return c.linearAt[d]
}

// Clients returns the sorted set of client ids appearing on inputs or
// outputs.
func (c *Circuit) Clients() []int {
	seen := map[int]bool{}
	for cl := range c.inputsByClient {
		seen[cl] = true
	}
	for cl := range c.outputsByClient {
		seen[cl] = true
	}
	out := make([]int, 0, len(seen))
	for cl := range seen {
		out = append(out, cl)
	}
	slices.Sort(out)
	return out
}

// InputGates returns the indices of client's input gates in order.
func (c *Circuit) InputGates(client int) []int { return c.inputsByClient[client] }

// OutputGates returns the indices of client's output gates in order.
func (c *Circuit) OutputGates(client int) []int { return c.outputsByClient[client] }

// InputCount returns the number of inputs client must supply.
func (c *Circuit) InputCount(client int) int { return len(c.inputsByClient[client]) }

// CheckInputs returns ErrWrongInputs unless every client supplied exactly
// the number of inputs the circuit reads from it.
func (c *Circuit) CheckInputs(inputs map[int][]field.Element) error {
	for _, client := range c.Clients() {
		if got, want := len(inputs[client]), c.InputCount(client); got != want {
			return fmt.Errorf("%w: client %d supplied %d of %d inputs", ErrWrongInputs, client, got, want)
		}
	}
	return nil
}

// Eval is the plaintext reference evaluator: it computes all wire values
// from the client inputs and returns each client's outputs in gate order.
func (c *Circuit) Eval(inputs map[int][]field.Element) (map[int][]field.Element, error) {
	wires, err := c.EvalWires(inputs)
	if err != nil {
		return nil, err
	}
	out := map[int][]field.Element{}
	for client, gates := range c.outputsByClient {
		vals := make([]field.Element, len(gates))
		for i, gi := range gates {
			vals[i] = wires[c.gates[gi].A]
		}
		out[client] = vals
	}
	return out, nil
}

// EvalWires computes every wire value. Exposed for protocol tests that
// compare intermediate wire values.
func (c *Circuit) EvalWires(inputs map[int][]field.Element) ([]field.Element, error) {
	if err := c.CheckInputs(inputs); err != nil {
		return nil, err
	}
	wires := make([]field.Element, c.numWires)
	given := map[int]int{}
	for _, g := range c.gates {
		switch g.Kind {
		case KindInput:
			wires[g.Out] = inputs[g.Client][given[g.Client]]
			given[g.Client]++
		case KindMul:
			wires[g.Out] = wires[g.A].Mul(wires[g.B])
		case KindOutput:
			// no wire effect
		default:
			wires[g.Out] = g.EvalLinear(wires)
		}
	}
	return wires, nil
}

// MulBatch is a group of at most k multiplication gates at the same
// multiplicative depth, evaluated together as one packed unit.
type MulBatch struct {
	// Layer is the multiplicative depth (1-based).
	Layer int
	// Gates are indices into Gates() of the member mul gates.
	Gates []int
}

// MulBatches groups multiplication gates by layer into batches of at most k.
// Every batch's gates all have inputs available once the previous layers'
// outputs are public, so the protocol can process layer l batches after
// reconstructing layer l-1. With k ≥ NumMul() each layer is one batch.
func (c *Circuit) MulBatches(k int) []MulBatch {
	k = max(k, 1)
	var out []MulBatch
	for l, gates := range c.mulAt {
		for start := 0; start < len(gates); start += k {
			end := min(start+k, len(gates))
			out = append(out, MulBatch{Layer: l + 1, Gates: append([]int(nil), gates[start:end]...)})
		}
	}
	return out
}
