package field

import (
	"testing"
	"testing/quick"
)

// boundaryElems are the values most likely to expose a folding bug: the
// extremes of the canonical range, the powers straddling the 61-bit fold
// boundary, and their neighbours.
var boundaryElems = []Element{
	New(0), New(1), New(2), New(3),
	New(Modulus - 1), New(Modulus - 2), New(Modulus - 3),
	New(1 << 60), New(1<<60 - 1), New(1<<60 + 1),
	New(1 << 59), New(1<<31 - 1), New(1 << 32),
}

// TestInnerProductLazyExhaustiveBoundary drives every pair of boundary
// values through every vector length around the 4-term fold window, in
// every position, and demands bit-identity with the canonical
// InnerProduct.
func TestInnerProductLazyExhaustiveBoundary(t *testing.T) {
	for _, x := range boundaryElems {
		for _, y := range boundaryElems {
			for n := 0; n <= 9; n++ {
				for pos := 0; pos < n; pos++ {
					a := make([]Element, n)
					b := make([]Element, n)
					for i := range a {
						// Fill the rest with the worst-case constant so the
						// accumulator runs as hot as possible.
						a[i], b[i] = New(Modulus-1), New(Modulus-1)
					}
					a[pos], b[pos] = x, y
					want := InnerProduct(a, b)
					if got := InnerProductLazy(a, b); got != want {
						t.Fatalf("InnerProductLazy(n=%d pos=%d x=%v y=%v) = %v, want %v",
							n, pos, x, y, got, want)
					}
				}
			}
		}
	}
}

// TestInnerProductLazyAllMax pins the absolute worst case for the lazy
// accumulator: long vectors of p−1 everywhere, across lengths spanning
// several fold windows plus every tail size.
func TestInnerProductLazyAllMax(t *testing.T) {
	for n := 0; n <= 67; n++ {
		a := make([]Element, n)
		for i := range a {
			a[i] = New(Modulus - 1)
		}
		want := InnerProduct(a, a)
		if got := InnerProductLazy(a, a); got != want {
			t.Fatalf("all-max n=%d: lazy %v != canonical %v", n, got, want)
		}
	}
}

func TestInnerProductLazyQuick(t *testing.T) {
	f := func(raw []uint64) bool {
		a := make([]Element, len(raw))
		b := make([]Element, len(raw))
		for i, v := range raw {
			a[i] = New(v)
			b[i] = New(v*2718281828 + 314159)
		}
		return InnerProductLazy(a, b) == InnerProduct(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInnerProductLazyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("InnerProductLazy accepted mismatched lengths")
		}
	}()
	InnerProductLazy(make([]Element, 2), make([]Element, 3))
}

func TestMatVecLazy(t *testing.T) {
	rows := [][]Element{
		{New(1), New(2), New(3)},
		{New(Modulus - 1), New(0), New(7)},
	}
	v := []Element{New(5), New(11), New(Modulus - 2)}
	got := MatVecLazy(rows, v)
	if len(got) != 2 {
		t.Fatalf("MatVecLazy returned %d rows", len(got))
	}
	for i, row := range rows {
		if want := InnerProduct(row, v); got[i] != want {
			t.Errorf("row %d: %v, want %v", i, got[i], want)
		}
	}
}

func BenchmarkInnerProduct(b *testing.B) {
	a := MustRandomVec(1024)
	c := MustRandomVec(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkElem = InnerProduct(a, c)
	}
}

func BenchmarkInnerProductLazy(b *testing.B) {
	a := MustRandomVec(1024)
	c := MustRandomVec(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkElem = InnerProductLazy(a, c)
	}
}

var sinkElem Element
