package circuit

import (
	"reflect"
	"testing"

	"yosompc/internal/field"
)

func TestEarlyOutputs(t *testing.T) {
	build := func(f func(b *Builder)) func() (*Circuit, error) {
		return func() (*Circuit, error) {
			b := NewBuilder()
			f(b)
			return b.Build()
		}
	}
	for _, tc := range []struct {
		name  string
		circ  func() (*Circuit, error)
		early map[int]bool
	}{
		{"products", func() (*Circuit, error) { return WideMul(4, 2) }, map[int]bool{0: true}},
		{"sum of products", func() (*Circuit, error) { return InnerProduct(3) }, map[int]bool{0: true}},
		{"one client", func() (*Circuit, error) { return NonZeroIndicator(2) }, map[int]bool{2: true}},
		// Σxᵢ hands every client the others' input masks.
		{"statistics", func() (*Circuit, error) { return Statistics(3) }, map[int]bool{}},
		{"sum of inputs", build(func(b *Builder) {
			b.Output(b.Add(b.Input(0), b.Input(1)), 0)
		}), map[int]bool{}},
		// A client's own input is its own to know; another's is not.
		{"own input", build(func(b *Builder) {
			x := b.Input(0)
			b.Output(x, 0)
			b.Output(x, 1)
		}), map[int]bool{0: true}},
		// m − x₀ + x₀ = m: cancelled terms leave a product's mask.
		{"cancelled input", build(func(b *Builder) {
			x0, x1 := b.Input(0), b.Input(1)
			m := b.Mul(x0, x1)
			b.Output(b.Sub(b.Add(m, x0), x0), 1)
		}), map[int]bool{1: true}},
		{"constant", build(func(b *Builder) {
			x0, x1 := b.Input(0), b.Input(1)
			b.Output(b.Const(field.New(9)), 1)
			b.Output(b.ConstMul(field.New(3), b.Mul(x0, x1)), 1)
		}), map[int]bool{1: true}},
		// m and m + x₀ each look masked; together they give λ_{x₀}.
		{"two outputs", build(func(b *Builder) {
			x0, x1 := b.Input(0), b.Input(1)
			m := b.Mul(x0, x1)
			b.Output(m, 1)
			b.Output(b.Add(m, x0), 1)
		}), map[int]bool{}},
		// Clients 0 and 1 together: m and m + x₂ give λ_{x₂}. Client 0
		// joins first; client 1 would complete the combination and stays
		// out, though its outputs alone would be masked.
		{"coalition", build(func(b *Builder) {
			x0, x1, x2 := b.Input(0), b.Input(1), b.Input(2)
			m := b.Mul(x0, x1)
			b.Output(m, 0)
			b.Output(b.Add(m, x2), 1)
			b.Output(b.Mul(m, x2), 2)
		}), map[int]bool{0: true, 2: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.circ()
			if err != nil {
				t.Fatal(err)
			}
			if got := c.EarlyOutputs(); !reflect.DeepEqual(got, tc.early) {
				t.Errorf("early %v, want %v", got, tc.early)
			}
		})
	}
}

// A chain of additions reads each partial sum once: the forms are taken
// over, and the result is the sum's.
func TestOutputMaskFormsOfAChain(t *testing.T) {
	c, err := InnerProduct(50)
	if err != nil {
		t.Fatal(err)
	}
	forms := c.outputMaskForms()
	if len(forms[0]) != 1 || len(forms[0][0]) != 50 {
		t.Fatalf("forms %v, want one output over 50 products", forms)
	}
	for _, g := range c.Gates() {
		if g.Kind == KindMul && forms[0][0][g.Out] != field.One {
			t.Errorf("product wire %d has coefficient %v, want 1", g.Out, forms[0][0][g.Out])
		}
	}
}
