package field

import (
	"fmt"
	"testing"
	"testing/quick"
)

func fromUints(vs []uint64) []Element {
	out := make([]Element, len(vs))
	for i, v := range vs {
		out[i] = New(v)
	}
	return out
}

func TestAddSubVec(t *testing.T) {
	f := func(as, bs []uint64) bool {
		n := len(as)
		if len(bs) < n {
			n = len(bs)
		}
		a, b := fromUints(as[:n]), fromUints(bs[:n])
		return EqualVec(SubVec(AddVec(a, b), b), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulVec(t *testing.T) {
	a := fromUints([]uint64{2, 3, 4})
	b := fromUints([]uint64{5, 6, 7})
	want := fromUints([]uint64{10, 18, 28})
	if got := MulVec(a, b); !EqualVec(got, want) {
		t.Errorf("MulVec = %v, want %v", got, want)
	}
}

func TestScalarMulVec(t *testing.T) {
	a := fromUints([]uint64{1, 2, 3})
	got := ScalarMulVec(New(10), a)
	want := fromUints([]uint64{10, 20, 30})
	if !EqualVec(got, want) {
		t.Errorf("ScalarMulVec = %v, want %v", got, want)
	}
}

func TestNegVecSum(t *testing.T) {
	f := func(as []uint64) bool {
		a := fromUints(as)
		s := AddVec(a, NegVec(a))
		for _, v := range s {
			if v != Zero {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInnerProduct(t *testing.T) {
	a := fromUints([]uint64{1, 2, 3})
	b := fromUints([]uint64{4, 5, 6})
	if got := InnerProduct(a, b); got != New(32) {
		t.Errorf("InnerProduct = %v, want 32", got)
	}
}

func TestSum(t *testing.T) {
	if got := Sum(fromUints([]uint64{1, 2, 3, 4})); got != New(10) {
		t.Errorf("Sum = %v, want 10", got)
	}
	if got := Sum(nil); got != Zero {
		t.Errorf("Sum(nil) = %v, want 0", got)
	}
}

func TestEqualVec(t *testing.T) {
	a := fromUints([]uint64{1, 2})
	if EqualVec(a, fromUints([]uint64{1})) {
		t.Error("EqualVec true on length mismatch")
	}
	if !EqualVec(a, CloneVec(a)) {
		t.Error("EqualVec false on clone")
	}
}

func TestCloneVecIndependent(t *testing.T) {
	a := fromUints([]uint64{1, 2, 3})
	c := CloneVec(a)
	c[0] = New(99)
	if a[0] == New(99) {
		t.Error("CloneVec aliases input")
	}
}

func TestVecSerializationRoundTrip(t *testing.T) {
	f := func(as []uint64) bool {
		a := fromUints(as)
		buf := AppendVecBytes(nil, a)
		b, err := VecFromBytes(buf, len(a))
		return err == nil && EqualVec(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecFromBytesShort(t *testing.T) {
	if _, err := VecFromBytes([]byte{1, 2, 3}, 1); err == nil {
		t.Error("VecFromBytes accepted short buffer")
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddVec did not panic on length mismatch")
		}
	}()
	AddVec(make([]Element, 2), make([]Element, 3))
}

func TestZeroize(t *testing.T) {
	v := MustRandomVec(64)
	Zeroize(v)
	for i, e := range v {
		if e != Zero {
			t.Fatalf("Zeroize left v[%d] = %v", i, e)
		}
	}
	Zeroize(nil) // must tolerate empty input
}

// BenchmarkZeroize bounds the cost the sharing hot path pays for wiping
// its scratch randomness: one pass over a d+1 = 513 element buffer (the
// n=1024 benchmark geometry) against the ~861µs the share evaluation
// itself takes — the wipe must stay noise.
func BenchmarkZeroize(b *testing.B) {
	v := MustRandomVec(513)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Zeroize(v)
	}
}

// AddVec returns the element-wise sum a + b. Panics if lengths differ, since
// mismatched vector lengths indicate a programming error in batch layout.
func AddVec(a, b []Element) []Element {
	mustSameLen("AddVec", a, b)
	out := make([]Element, len(a))
	for i := range a {
		out[i] = a[i].Add(b[i])
	}
	return out
}

// SubVec returns the element-wise difference a - b.
func SubVec(a, b []Element) []Element {
	mustSameLen("SubVec", a, b)
	out := make([]Element, len(a))
	for i := range a {
		out[i] = a[i].Sub(b[i])
	}
	return out
}

// MulVec returns the element-wise (Schur) product a * b.
func MulVec(a, b []Element) []Element {
	mustSameLen("MulVec", a, b)
	out := make([]Element, len(a))
	for i := range a {
		out[i] = a[i].Mul(b[i])
	}
	return out
}

// NegVec returns -a element-wise.
func NegVec(a []Element) []Element {
	out := make([]Element, len(a))
	for i := range a {
		out[i] = a[i].Neg()
	}
	return out
}

// VecFromBytes decodes n elements from buf.
func VecFromBytes(buf []byte, n int) ([]Element, error) {
	if len(buf) < n*ElementSize {
		return nil, fmt.Errorf("field: short vector encoding: %d bytes for %d elements", len(buf), n)
	}
	out := make([]Element, n)
	for i := 0; i < n; i++ {
		e, err := FromBytes(buf[i*ElementSize:])
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// Sum returns Σ a_i.
func Sum(a []Element) Element {
	var acc Element
	for _, v := range a {
		acc = acc.Add(v)
	}
	return acc
}

// ScalarMulVec returns c·a element-wise.
func ScalarMulVec(c Element, a []Element) []Element {
	out := make([]Element, len(a))
	for i := range a {
		out[i] = c.Mul(a[i])
	}
	return out
}
