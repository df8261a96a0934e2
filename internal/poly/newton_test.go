package poly

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"yosompc/internal/field"
)

// interpolateLagrange is the original O(n³) construction, kept in tests
// as the reference the Newton path is differentially pinned against.
func interpolateLagrange(t *testing.T, xs, ys []field.Element) Polynomial {
	t.Helper()
	basis, err := LagrangeBasis(xs)
	if err != nil {
		t.Fatal(err)
	}
	acc := Zero()
	for i := range ys {
		acc = acc.Add(basis[i].ScalarMul(ys[i]))
	}
	return acc
}

func TestInterpolateMatchesLagrangeBasis(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33} {
		xs := make([]field.Element, n)
		for i := range xs {
			// Mix of slot-style negatives and share-style positives.
			if i%2 == 0 {
				xs[i] = field.NewInt64(int64(-i))
			} else {
				xs[i] = field.New(uint64(i))
			}
		}
		ys := field.MustRandomVec(n)
		got, err := Interpolate(xs, ys)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := interpolateLagrange(t, xs, ys); !got.Equal(want) {
			t.Fatalf("n=%d: Newton and Lagrange interpolants differ", n)
		}
	}
}

func TestInterpolateDistinct(t *testing.T) {
	xs := elems(1, 2, 3, 4, 5)
	ys := field.MustRandomVec(5)
	fast, err := InterpolateDistinct(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Interpolate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Equal(slow) {
		t.Error("InterpolateDistinct differs from Interpolate")
	}
	if _, err := InterpolateDistinct(elems(1, 2), elems(1)); err == nil {
		t.Error("InterpolateDistinct accepted length mismatch")
	}
	// Duplicates must still fail closed, via the zero denominator.
	if _, err := InterpolateDistinct(elems(3, 1, 3), elems(1, 2, 3)); !errors.Is(err, ErrDuplicatePoint) {
		t.Errorf("InterpolateDistinct on duplicates: %v, want ErrDuplicatePoint", err)
	}
}

func TestInterpolateNewtonRoundTripQuick(t *testing.T) {
	f := func(raw []uint64, deg uint8) bool {
		n := 1 + int(deg)%12
		xs := make([]field.Element, n)
		for i := range xs {
			xs[i] = field.New(uint64(i * 7))
		}
		p := MustRandom(n - 1)
		ys := p.EvalMany(xs)
		rec, err := InterpolateDistinct(xs, ys)
		return err == nil && rec.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBarycentricWeightsMatchLagrangeCoeffs(t *testing.T) {
	xs := []field.Element{
		field.NewInt64(0), field.NewInt64(-1), field.NewInt64(-2),
		field.New(1), field.New(2), field.New(3),
	}
	ws, err := BarycentricWeights(xs)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []field.Element{field.New(9), field.New(1 << 40), field.NewInt64(-7)} {
		want, err := LagrangeCoeffs(xs, at)
		if err != nil {
			t.Fatal(err)
		}
		got := EvalCoeffsFromWeights(xs, ws, at)
		if !field.EqualVec(got, want) {
			t.Errorf("coefficient row at %v differs from LagrangeCoeffs", at)
		}
	}
}

func TestBarycentricWeightsDuplicate(t *testing.T) {
	if _, err := BarycentricWeights(elems(5, 6, 5)); !errors.Is(err, ErrDuplicatePoint) {
		t.Errorf("BarycentricWeights on duplicates: %v, want ErrDuplicatePoint", err)
	}
}

func TestEvalCoeffsAtInterpolationPoint(t *testing.T) {
	// When `at` is one of the xs the row must degenerate to the indicator
	// of that point — the property the reconstruction fast path leans on
	// when a consistency-check share repeats a prefix index.
	xs := elems(4, 9, 2, 11)
	ws, err := BarycentricWeights(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range xs {
		row := EvalCoeffsFromWeights(xs, ws, at)
		for j := range xs {
			want := field.Zero
			if j == i {
				want = field.One
			}
			if row[j] != want {
				t.Errorf("row(at=x_%d)[%d] = %v, want %v", i, j, row[j], want)
			}
		}
	}
}

func TestEvalRowsFromWeights(t *testing.T) {
	xs := elems(1, 2, 3)
	ws, err := BarycentricWeights(xs)
	if err != nil {
		t.Fatal(err)
	}
	p := MustRandom(2)
	ats := []field.Element{field.New(17), field.NewInt64(-4), field.New(2)}
	rows := EvalRowsFromWeights(xs, ws, ats)
	ys := p.EvalMany(xs)
	for i, at := range ats {
		if got := field.InnerProduct(rows[i], ys); got != p.Eval(at) {
			t.Errorf("row %d: %v, want f(%v) = %v", i, got, at, p.Eval(at))
		}
	}
	if len(EvalCoeffsFromWeights(nil, nil, field.One)) != 0 {
		t.Error("empty point set should produce an empty row")
	}
}

func BenchmarkInterpolate(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		xs := make([]field.Element, n)
		for i := range xs {
			xs[i] = field.New(uint64(i + 1))
		}
		ys := field.MustRandomVec(n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Interpolate(xs, ys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 64:
		return "n=64"
	case 256:
		return "n=256"
	case 1024:
		return "n=1024"
	}
	return "n=?"
}

// InterpolateDistinct is Interpolate for callers whose point sets are
// distinct by construction (e.g. the packed-sharing geometry of slot
// points 0,-1,... and share indices 1..n): it skips the per-call
// distinctness map. A duplicate still fails closed with
// ErrDuplicatePoint — it is detected as a zero divided-difference
// denominator rather than up front.
func InterpolateDistinct(xs, ys []field.Element) (Polynomial, error) {
	if len(xs) != len(ys) {
		return Polynomial{}, fmt.Errorf("poly: interpolate: %d points vs %d values", len(xs), len(ys))
	}
	return interpolateNewton(xs, ys)
}
