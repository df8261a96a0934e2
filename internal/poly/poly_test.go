package poly

import (
	"fmt"
	"testing"
	"testing/quick"

	"yosompc/internal/field"
)

func elems(vs ...uint64) []field.Element {
	out := make([]field.Element, len(vs))
	for i, v := range vs {
		out[i] = field.New(v)
	}
	return out
}

func TestNewTrimsTrailingZeros(t *testing.T) {
	p := New(elems(1, 2, 0, 0))
	if p.Degree() != 1 {
		t.Errorf("degree = %d, want 1", p.Degree())
	}
	if Zero().Degree() != -1 {
		t.Errorf("zero degree = %d, want -1", Zero().Degree())
	}
}

func TestEvalHorner(t *testing.T) {
	// p(x) = 3 + 2x + x²
	p := New(elems(3, 2, 1))
	cases := []struct{ x, want uint64 }{
		{0, 3}, {1, 6}, {2, 11}, {10, 123},
	}
	for _, c := range cases {
		if got := p.Eval(field.New(c.x)); got != field.New(c.want) {
			t.Errorf("p(%d) = %v, want %d", c.x, got, c.want)
		}
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(as, bs []uint64) bool {
		pa := New(fieldVec(as))
		pb := New(fieldVec(bs))
		return pa.Add(pb).Sub(pb).Equal(pa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulDegree(t *testing.T) {
	p := New(elems(1, 1))    // 1+x
	q := New(elems(2, 0, 1)) // 2+x²
	r := p.Mul(q)
	if r.Degree() != 3 {
		t.Errorf("degree = %d, want 3", r.Degree())
	}
	// (1+x)(2+x²) = 2 + 2x + x² + x³
	want := New(elems(2, 2, 1, 1))
	if !r.Equal(want) {
		t.Errorf("product = %v, want %v", r.Coefficients(), want.Coefficients())
	}
}

func TestMulEvalHomomorphism(t *testing.T) {
	f := func(as, bs []uint64, x uint64) bool {
		pa, pb := New(fieldVec(as)), New(fieldVec(bs))
		xe := field.New(x)
		return pa.Mul(pb).Eval(xe) == pa.Eval(xe).Mul(pb.Eval(xe))
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMulZero(t *testing.T) {
	p := New(elems(1, 2, 3))
	if !p.Mul(Zero()).IsZero() {
		t.Error("p·0 != 0")
	}
	if !Zero().Mul(p).IsZero() {
		t.Error("0·p != 0")
	}
}

func TestScalarMul(t *testing.T) {
	p := New(elems(1, 2))
	got := p.ScalarMul(field.New(3))
	if !got.Equal(New(elems(3, 6))) {
		t.Errorf("3·p = %v", got.Coefficients())
	}
	if !p.ScalarMul(field.Zero).IsZero() {
		t.Error("0·p != 0")
	}
}

func TestInterpolateExact(t *testing.T) {
	// Interpolating d+1 points of a degree-d polynomial recovers it.
	orig := MustRandom(7)
	xs := make([]field.Element, 8)
	for i := range xs {
		xs[i] = field.New(uint64(i + 1))
	}
	ys := orig.EvalMany(xs)
	rec, err := Interpolate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Equal(orig) {
		t.Error("interpolation did not recover polynomial")
	}
}

func TestInterpolateNegativePoints(t *testing.T) {
	// Packed sharing uses slot points 0, -1, -2, ...; make sure interpolation
	// through "negative" points (p-1, p-2, ...) is exact.
	orig := MustRandom(4)
	xs := []field.Element{
		field.NewInt64(0), field.NewInt64(-1), field.NewInt64(-2),
		field.NewInt64(-3), field.NewInt64(-4),
	}
	ys := orig.EvalMany(xs)
	rec, err := Interpolate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Equal(orig) {
		t.Error("interpolation through slot points failed")
	}
}

func TestInterpolateDuplicatePoints(t *testing.T) {
	xs := elems(1, 1)
	ys := elems(2, 3)
	if _, err := Interpolate(xs, ys); err == nil {
		t.Error("Interpolate accepted duplicate points")
	}
}

func TestInterpolateLengthMismatch(t *testing.T) {
	if _, err := Interpolate(elems(1, 2), elems(1)); err == nil {
		t.Error("Interpolate accepted length mismatch")
	}
}

func TestLagrangeBasisProperty(t *testing.T) {
	xs := elems(1, 2, 3, 4)
	basis, err := LagrangeBasis(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, li := range basis {
		for j, xj := range xs {
			got := li.Eval(xj)
			want := field.Zero
			if i == j {
				want = field.One
			}
			if got != want {
				t.Errorf("L_%d(x_%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestLagrangeCoeffsMatchEval(t *testing.T) {
	orig := MustRandom(5)
	xs := make([]field.Element, 6)
	for i := range xs {
		xs[i] = field.New(uint64(i + 10))
	}
	ys := orig.EvalMany(xs)
	at := field.New(12345)
	coeffs, err := LagrangeCoeffs(xs, at)
	if err != nil {
		t.Fatal(err)
	}
	if got := field.InnerProduct(coeffs, ys); got != orig.Eval(at) {
		t.Errorf("Σ c_i y_i = %v, want %v", got, orig.Eval(at))
	}
}

func TestEvalAt(t *testing.T) {
	orig := MustRandom(3)
	xs := elems(1, 2, 3, 4)
	ys := orig.EvalMany(xs)
	got, err := EvalAt(xs, ys, field.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if got != orig.Eval(field.New(99)) {
		t.Errorf("EvalAt = %v, want %v", got, orig.Eval(field.New(99)))
	}
}

func TestEvalAtErrors(t *testing.T) {
	if _, err := EvalAt(elems(1, 2), elems(1), field.Zero); err == nil {
		t.Error("EvalAt accepted length mismatch")
	}
	if _, err := EvalAt(elems(1, 1), elems(1, 2), field.Zero); err == nil {
		t.Error("EvalAt accepted duplicate points")
	}
}

func TestRandomDegree(t *testing.T) {
	p := MustRandom(10)
	if p.Degree() > 10 {
		t.Errorf("degree = %d > 10", p.Degree())
	}
	if !MustRandom(-1).IsZero() {
		t.Error("Random(-1) not zero")
	}
}

func TestCoefficientOutOfRange(t *testing.T) {
	p := New(elems(1, 2))
	if p.Coefficient(-1) != field.Zero || p.Coefficient(5) != field.Zero {
		t.Error("out-of-range Coefficient not zero")
	}
}

func fieldVec(vs []uint64) []field.Element {
	out := make([]field.Element, len(vs))
	for i, v := range vs {
		out[i] = field.New(v)
	}
	return out
}

func BenchmarkInterpolate64(b *testing.B) {
	orig := MustRandom(63)
	xs := make([]field.Element, 64)
	for i := range xs {
		xs[i] = field.New(uint64(i + 1))
	}
	ys := orig.EvalMany(xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Interpolate(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLagrangeCoeffs64(b *testing.B) {
	xs := make([]field.Element, 64)
	for i := range xs {
		xs[i] = field.New(uint64(i + 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LagrangeCoeffs(xs, field.Zero); err != nil {
			b.Fatal(err)
		}
	}
}

// EvalMany evaluates p at every point in xs.
func (p Polynomial) EvalMany(xs []field.Element) []field.Element {
	out := make([]field.Element, len(xs))
	for i, x := range xs {
		out[i] = p.Eval(x)
	}
	return out
}

// EvalAt interpolates through (xs, ys) and evaluates at `at` directly,
// without constructing the polynomial. O(len(xs)²).
func EvalAt(xs, ys []field.Element, at field.Element) (field.Element, error) {
	if len(xs) != len(ys) {
		return field.Zero, fmt.Errorf("poly: evalAt: %d points vs %d values", len(xs), len(ys))
	}
	coeffs, err := LagrangeCoeffs(xs, at)
	if err != nil {
		return field.Zero, err
	}
	return field.InnerProduct(coeffs, ys), nil
}

// Zero returns the zero polynomial.
func Zero() Polynomial { return Polynomial{} }

// MustRandom is Random panicking on randomness failure.
func MustRandom(deg int) Polynomial {
	p, err := Random(deg)
	if err != nil {
		panic(err)
	}
	return p
}

// Add returns p + q.
func (p Polynomial) Add(q Polynomial) Polynomial {
	longer, shorter := p.coeffs, q.coeffs
	if len(shorter) > len(longer) {
		longer, shorter = shorter, longer
	}
	out := field.CloneVec(longer)
	for i := range shorter {
		out[i] = out[i].Add(shorter[i])
	}
	return New(out)
}

// Sub returns p - q.
func (p Polynomial) Sub(q Polynomial) Polynomial {
	n := len(p.coeffs)
	if len(q.coeffs) > n {
		n = len(q.coeffs)
	}
	out := make([]field.Element, n)
	for i := range out {
		out[i] = p.Coefficient(i).Sub(q.Coefficient(i))
	}
	return New(out)
}

// Equal reports whether p and q are identical polynomials.
func (p Polynomial) Equal(q Polynomial) bool { return field.EqualVec(p.coeffs, q.coeffs) }

// LagrangeBasis returns the Lagrange basis polynomials L_i for the point set
// xs: L_i(xs[i]) = 1 and L_i(xs[j]) = 0 for j != i.
func LagrangeBasis(xs []field.Element) ([]Polynomial, error) {
	if err := checkDistinct(xs); err != nil {
		return nil, err
	}
	denoms := make([]field.Element, len(xs))
	nums := make([]Polynomial, len(xs))
	for i, xi := range xs {
		num := Constant(field.One)
		denom := field.One
		for j, xj := range xs {
			if j == i {
				continue
			}
			// num *= (x - xj)
			num = num.Mul(New([]field.Element{xj.Neg(), field.One}))
			denom = denom.Mul(xi.Sub(xj))
		}
		nums[i], denoms[i] = num, denom
	}
	invs, err := field.BatchInv(denoms)
	if err != nil {
		return nil, fmt.Errorf("poly: lagrange basis: %w", err)
	}
	basis := make([]Polynomial, len(xs))
	for i := range xs {
		basis[i] = nums[i].ScalarMul(invs[i])
	}
	return basis, nil
}

// LagrangeCoeffs returns the coefficients c_i such that for any polynomial f
// of degree < len(xs): f(at) = Σ c_i · f(xs[i]), by the direct product
// formula: the reference the barycentric rows are pinned against.
func LagrangeCoeffs(xs []field.Element, at field.Element) ([]field.Element, error) {
	if err := checkDistinct(xs); err != nil {
		return nil, err
	}
	nums := make([]field.Element, len(xs))
	denoms := make([]field.Element, len(xs))
	for i, xi := range xs {
		num, denom := field.One, field.One
		for j, xj := range xs {
			if j == i {
				continue
			}
			num = num.Mul(at.Sub(xj))
			denom = denom.Mul(xi.Sub(xj))
		}
		nums[i], denoms[i] = num, denom
	}
	invs, err := field.BatchInv(denoms)
	if err != nil {
		return nil, fmt.Errorf("poly: lagrange coeffs: %w", err)
	}
	coeffs := make([]field.Element, len(xs))
	for i := range xs {
		coeffs[i] = nums[i].Mul(invs[i])
	}
	return coeffs, nil
}

// Constant returns the degree-0 polynomial c.
func Constant(c field.Element) Polynomial {
	if c.IsZero() {
		return Polynomial{}
	}
	return Polynomial{coeffs: []field.Element{c}}
}

// Random returns a uniformly random polynomial of degree at most deg.
func Random(deg int) (Polynomial, error) {
	if deg < 0 {
		return Polynomial{}, nil
	}
	coeffs, err := field.RandomVec(deg + 1)
	if err != nil {
		return Polynomial{}, err
	}
	return Polynomial{coeffs: coeffs}, nil
}

// Coefficient returns the coefficient of x^i (zero beyond the degree).
func (p Polynomial) Coefficient(i int) field.Element {
	if i < 0 || i >= len(p.coeffs) {
		return field.Zero
	}
	return p.coeffs[i]
}

// Mul returns p · q by schoolbook multiplication. Degrees in this codebase
// are committee-sized (≤ a few thousand), so O(d²) is acceptable.
func (p Polynomial) Mul(q Polynomial) Polynomial {
	if p.IsZero() || q.IsZero() {
		return Polynomial{}
	}
	out := make([]field.Element, len(p.coeffs)+len(q.coeffs)-1)
	for i, a := range p.coeffs {
		if a.IsZero() {
			continue
		}
		for j, b := range q.coeffs {
			out[i+j] = out[i+j].Add(a.Mul(b))
		}
	}
	return New(out)
}

// ScalarMul returns c·p.
func (p Polynomial) ScalarMul(c field.Element) Polynomial {
	if c.IsZero() {
		return Polynomial{}
	}
	out := make([]field.Element, len(p.coeffs))
	for i, a := range p.coeffs {
		out[i] = c.Mul(a)
	}
	return New(out)
}
