package circuit

import (
	"errors"
	"strings"
	"testing"

	"yosompc/internal/field"
)

func inputs(vals map[int][]uint64) map[int][]field.Element {
	out := map[int][]field.Element{}
	for c, vs := range vals {
		es := make([]field.Element, len(vs))
		for i, v := range vs {
			es[i] = field.New(v)
		}
		out[c] = es
	}
	return out
}

func TestBuilderBasicEval(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	sum := b.Add(x, y)
	prod := b.Mul(x, y)
	diff := b.Sub(prod, sum)
	scaled := b.ConstMul(field.New(10), diff)
	b.Output(scaled, 0)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// x=7, y=3: ((7·3) − (7+3)) · 10 = 110.
	out, err := c.Eval(inputs(map[int][]uint64{0: {7}, 1: {3}}))
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0][0]; got != field.New(110) {
		t.Errorf("output = %v, want 110", got)
	}
}

func TestBuildRequiresOutput(t *testing.T) {
	b := NewBuilder()
	b.Input(0)
	if _, err := b.Build(); err != ErrNoOutputs {
		t.Errorf("err = %v, want ErrNoOutputs", err)
	}
}

func TestUseBeforeDefinitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for undefined wire")
		}
	}()
	b := NewBuilder()
	b.Add(WireID(5), WireID(6))
}

func TestEvalMissingInput(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	y := b.Input(0)
	b.Output(b.Add(x, y), 0)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Eval(inputs(map[int][]uint64{0: {1}})); !errors.Is(err, ErrWrongInputs) {
		t.Errorf("missing input: err = %v, want ErrWrongInputs", err)
	}
	// Extra inputs break the same rule the protocol drivers check.
	if _, err := c.EvalWires(inputs(map[int][]uint64{0: {1, 2, 3}})); !errors.Is(err, ErrWrongInputs) {
		t.Errorf("extra input: err = %v, want ErrWrongInputs", err)
	}
}

func TestCounts(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	y := b.Input(0)
	m1 := b.Mul(x, y)
	m2 := b.Mul(m1, y)
	s := b.Add(m1, m2)
	b.Output(s, 0)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumMul() != 2 {
		t.Errorf("NumMul = %d, want 2", c.NumMul())
	}
	if c.NumLinear() != 1 {
		t.Errorf("NumLinear = %d, want 1", c.NumLinear())
	}
	if c.Depth() != 2 {
		t.Errorf("Depth = %d, want 2", c.Depth())
	}
}

func TestMulBatchesLayering(t *testing.T) {
	// Two layer-1 muls feeding one layer-2 mul.
	b := NewBuilder()
	x := b.Input(0)
	y := b.Input(0)
	m1 := b.Mul(x, y)
	m2 := b.Mul(y, x)
	m3 := b.Mul(m1, m2)
	b.Output(m3, 0)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	batches := c.MulBatches(4)
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2", len(batches))
	}
	if batches[0].Layer != 1 || len(batches[0].Gates) != 2 {
		t.Errorf("layer 1 batch: %+v", batches[0])
	}
	if batches[1].Layer != 2 || len(batches[1].Gates) != 1 {
		t.Errorf("layer 2 batch: %+v", batches[1])
	}
}

func TestMulBatchesRespectK(t *testing.T) {
	c, err := WideMul(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 4, 10, 100} {
		batches := c.MulBatches(k)
		total := 0
		for _, bt := range batches {
			if len(bt.Gates) > k {
				t.Errorf("k=%d: batch of %d gates", k, len(bt.Gates))
			}
			total += len(bt.Gates)
		}
		if total != c.NumMul() {
			t.Errorf("k=%d: batched %d of %d muls", k, total, c.NumMul())
		}
	}
	if got := c.MulBatches(0); len(got) != c.NumMul() {
		t.Errorf("k=0 should clamp to 1, got %d batches", len(got))
	}
}

func TestAddDoesNotIncreaseDepth(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	y := b.Input(0)
	m := b.Mul(x, y)
	a := b.Add(m, x)
	a = b.Add(a, y)
	m2 := b.Mul(a, x)
	b.Output(m2, 0)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 2 {
		t.Errorf("Depth = %d, want 2", c.Depth())
	}
}

func TestClients(t *testing.T) {
	b := NewBuilder()
	x := b.Input(3)
	y := b.Input(1)
	b.Output(b.Add(x, y), 7)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got := c.Clients()
	want := []int{1, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("Clients = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Clients = %v, want %v", got, want)
		}
	}
	if c.InputCount(3) != 1 || c.InputCount(7) != 0 {
		t.Error("InputCount wrong")
	}
}

func TestInnerProduct(t *testing.T) {
	c, err := InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Eval(inputs(map[int][]uint64{0: {1, 2, 3}, 1: {4, 5, 6}}))
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0][0]; got != field.New(32) {
		t.Errorf("⟨x,y⟩ = %v, want 32", got)
	}
	if w := widestLayer(c); w != 3 {
		t.Errorf("width = %d, want 3", w)
	}
}

func TestPolyEval(t *testing.T) {
	c, err := PolyEval(3)
	if err != nil {
		t.Fatal(err)
	}
	// p(x) = 1 + 2x + 3x² + 4x³ at x = 2 → 1+4+12+32 = 49.
	out, err := c.Eval(inputs(map[int][]uint64{0: {1, 2, 3, 4}, 1: {2}}))
	if err != nil {
		t.Fatal(err)
	}
	if got := out[1][0]; got != field.New(49) {
		t.Errorf("p(2) = %v, want 49", got)
	}
	if c.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", c.Depth())
	}
}

func TestMatVecMul(t *testing.T) {
	c, err := MatVecMul(2)
	if err != nil {
		t.Fatal(err)
	}
	// [[1,2],[3,4]]·[5,6] = [17, 39].
	out, err := c.Eval(inputs(map[int][]uint64{0: {1, 2, 3, 4}, 1: {5, 6}}))
	if err != nil {
		t.Fatal(err)
	}
	if out[1][0] != field.New(17) || out[1][1] != field.New(39) {
		t.Errorf("A·x = %v", out[1])
	}
}

func TestStatistics(t *testing.T) {
	c, err := Statistics(3)
	if err != nil {
		t.Fatal(err)
	}
	// x = [2, 4, 6]: sum = 12; 3·(4+16+36) − 144 = 168 − 144 = 24.
	out, err := c.Eval(inputs(map[int][]uint64{0: {2}, 1: {4}, 2: {6}}))
	if err != nil {
		t.Fatal(err)
	}
	for client := 0; client < 3; client++ {
		if out[client][0] != field.New(12) {
			t.Errorf("client %d sum = %v, want 12", client, out[client][0])
		}
		if out[client][1] != field.New(24) {
			t.Errorf("client %d variance·n² = %v, want 24", client, out[client][1])
		}
	}
}

func TestWideMul(t *testing.T) {
	c, err := WideMul(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumMul() != 12 {
		t.Errorf("NumMul = %d, want 12", c.NumMul())
	}
	if c.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", c.Depth())
	}
	if w := widestLayer(c); w != 4 {
		t.Errorf("width = %d, want 4", w)
	}
	// All-ones inputs: every product stays 1.
	out, err := c.Eval(inputs(map[int][]uint64{0: {1, 1}, 1: {1, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out[0] {
		if v != field.One {
			t.Errorf("output = %v, want 1", v)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	c1, err := Random(6, 40, 42)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Random(6, 40, 42)
	if err != nil {
		t.Fatal(err)
	}
	in := inputs(map[int][]uint64{0: {1, 2, 3}, 1: {4, 5, 6}})
	o1, err := c1.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := c2.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if o1[0][0] != o2[0][0] {
		t.Error("same seed produced different circuits")
	}
	c3, err := Random(6, 40, 43)
	if err != nil {
		t.Fatal(err)
	}
	if c3.NumMul() == 0 && c3.NumLinear() == 0 {
		t.Error("random circuit has no gates")
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := InnerProduct(0); err == nil {
		t.Error("InnerProduct(0) accepted")
	}
	if _, err := PolyEval(0); err == nil {
		t.Error("PolyEval(0) accepted")
	}
	if _, err := MatVecMul(0); err == nil {
		t.Error("MatVecMul(0) accepted")
	}
	if _, err := Statistics(1); err == nil {
		t.Error("Statistics(1) accepted")
	}
	if _, err := WideMul(1, 1); err == nil {
		t.Error("WideMul(1,1) accepted")
	}
	if _, err := Random(1, 5, 0); err == nil {
		t.Error("Random(1,...) accepted")
	}
}

func TestGateKindString(t *testing.T) {
	kinds := []GateKind{KindInput, KindAdd, KindSub, KindConstMul, KindMul, KindOutput, GateKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", int(k))
		}
	}
}

func TestNonZeroIndicator(t *testing.T) {
	c, err := NonZeroIndicator(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ in, want uint64 }{
		{0, 0}, {1, 1}, {7, 1}, {field.Modulus - 1, 1},
	} {
		out, err := c.Eval(inputs(map[int][]uint64{0: {tc.in}}))
		if err != nil {
			t.Fatal(err)
		}
		if out[0][0] != field.New(tc.want) {
			t.Errorf("indicator(%d) = %v, want %d", tc.in, out[0][0], tc.want)
		}
	}
	if c.Depth() < 60 {
		t.Errorf("depth = %d, expected ~61+", c.Depth())
	}
}

func TestNotEqualsIndicator(t *testing.T) {
	c, err := NotEqualsIndicator()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b uint64
		want uint64 // 0 ⇔ equal
	}{
		{5, 5, 0}, {5, 6, 1}, {0, 0, 0}, {0, 1, 1},
	}
	for _, tc := range cases {
		out, err := c.Eval(inputs(map[int][]uint64{0: {tc.a}, 1: {tc.b}}))
		if err != nil {
			t.Fatal(err)
		}
		if out[0][0] != field.New(tc.want) {
			t.Errorf("neq(%d,%d) = %v, want %d", tc.a, tc.b, out[0][0], tc.want)
		}
	}
}

func TestConstGate(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	five := b.Const(field.New(5))
	b.Output(b.Add(b.Mul(x, five), five), 0) // 5x + 5
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Eval(inputs(map[int][]uint64{0: {7}}))
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != field.New(40) {
		t.Errorf("5·7+5 = %v, want 40", out[0][0])
	}
}

func TestConstSerializeRoundTrip(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	k := b.Const(field.New(42))
	b.Output(b.Sub(k, x), 0)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(strings.NewReader(Format(c)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c2.Eval(inputs(map[int][]uint64{0: {40}}))
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != field.New(2) {
		t.Errorf("42−40 = %v, want 2", out[0][0])
	}
}

func TestOptimizerFoldsConsts(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	a := b.Const(field.New(3))
	bb := b.Const(field.New(4))
	sum := b.Add(a, bb)   // folds to const 7
	prod := b.Mul(sum, x) // becomes constmul 7·x
	b.Output(prod, 0)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumMul() != 0 {
		t.Errorf("const·x not folded to constmul: %d muls remain", opt.NumMul())
	}
	out, err := opt.Eval(inputs(map[int][]uint64{0: {6}}))
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != field.New(42) {
		t.Errorf("7·6 = %v, want 42", out[0][0])
	}
}

func TestEqualsIndicatorWithConst(t *testing.T) {
	c, err := EqualsIndicator()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ a, b, want uint64 }{
		{9, 9, 1}, {9, 8, 0},
	} {
		out, err := c.Eval(inputs(map[int][]uint64{0: {tc.a}, 1: {tc.b}}))
		if err != nil {
			t.Fatal(err)
		}
		if out[0][0] != field.New(tc.want) {
			t.Errorf("eq(%d,%d) = %v, want %d", tc.a, tc.b, out[0][0], tc.want)
		}
	}
}

func TestMembershipIndicator(t *testing.T) {
	c, err := MembershipIndicator(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		x    uint64
		want uint64
	}{
		{20, 1}, {30, 1}, {99, 0},
	} {
		out, err := c.Eval(inputs(map[int][]uint64{0: {tc.x}, 1: {10, 20, 30}}))
		if err != nil {
			t.Fatal(err)
		}
		if out[0][0] != field.New(tc.want) {
			t.Errorf("member(%d) = %v, want %d", tc.x, out[0][0], tc.want)
		}
	}
	if _, err := MembershipIndicator(0); err == nil {
		t.Error("accepted m=0")
	}
}

// NumLinear returns the number of free (add/sub/constmul/const) gates.
func (c *Circuit) NumLinear() int {
	n := 0
	for _, gates := range c.linearAt {
		n += len(gates)
	}
	return n
}
