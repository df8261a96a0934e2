package field

import (
	"math/big"
	"testing"
	"testing/quick"
)

// quickElement adapts testing/quick's uint64 generation to canonical elements.
func quickElement(v uint64) Element { return New(v) }

func TestNewReduces(t *testing.T) {
	cases := []struct {
		in   uint64
		want uint64
	}{
		{0, 0},
		{1, 1},
		{Modulus - 1, Modulus - 1},
		{Modulus, 0},
		{Modulus + 1, 1},
		{2 * Modulus, 0},
		{^uint64(0), (^uint64(0)) % Modulus},
	}
	for _, c := range cases {
		if got := New(c.in).Uint64(); got != c.want {
			t.Errorf("New(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNewInt64(t *testing.T) {
	if got := NewInt64(-1); got != New(Modulus-1) {
		t.Errorf("NewInt64(-1) = %v, want p-1", got)
	}
	if got := NewInt64(5); got != New(5) {
		t.Errorf("NewInt64(5) = %v", got)
	}
	if got := NewInt64(-5).Add(NewInt64(5)); got != Zero {
		t.Errorf("-5 + 5 = %v, want 0", got)
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := quickElement(a), quickElement(b)
		return x.Add(y).Sub(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCommutative(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := quickElement(a), quickElement(b)
		return x.Add(y) == y.Add(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := quickElement(a), quickElement(b)
		return x.Mul(y) == y.Mul(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := quickElement(a), quickElement(b), quickElement(c)
		return x.Mul(y).Mul(z) == x.Mul(y.Mul(z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := quickElement(a), quickElement(b), quickElement(c)
		return x.Mul(y.Add(z)) == x.Mul(y).Add(x.Mul(z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulMatchesBigInt(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := quickElement(a), quickElement(b)
		var want big.Int
		want.Mul(x.Big(), y.Big()).Mod(&want, modulusBig)
		return x.Mul(y).Uint64() == want.Uint64()
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMulEdgeCases(t *testing.T) {
	maxE := New(Modulus - 1)
	// (p-1)² mod p = 1.
	if got := maxE.Mul(maxE); got != One {
		t.Errorf("(p-1)² = %v, want 1", got)
	}
	if got := maxE.Mul(Zero); got != Zero {
		t.Errorf("(p-1)·0 = %v, want 0", got)
	}
	if got := maxE.Mul(One); got != maxE {
		t.Errorf("(p-1)·1 = %v, want p-1", got)
	}
}

func TestNeg(t *testing.T) {
	f := func(a uint64) bool {
		x := quickElement(a)
		return x.Add(x.Neg()) == Zero
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Zero.Neg() != Zero {
		t.Error("-0 != 0")
	}
}

func TestInv(t *testing.T) {
	f := func(a uint64) bool {
		x := quickElement(a)
		if x == Zero {
			return true
		}
		inv, err := x.Inv()
		if err != nil {
			return false
		}
		return x.Mul(inv) == One
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestInvZero(t *testing.T) {
	if _, err := Zero.Inv(); err != ErrNotInvertible {
		t.Errorf("Inv(0) error = %v, want ErrNotInvertible", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustInv(0) did not panic")
		}
	}()
	Zero.MustInv()
}

func TestDiv(t *testing.T) {
	x, y := New(42), New(7919)
	q, err := x.Div(y)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mul(y) != x {
		t.Errorf("(x/y)·y = %v, want %v", q.Mul(y), x)
	}
	if _, err := x.Div(Zero); err == nil {
		t.Error("Div by zero succeeded")
	}
}

func TestPow(t *testing.T) {
	x := New(3)
	if got := x.Pow(0); got != One {
		t.Errorf("3^0 = %v", got)
	}
	if got := x.Pow(1); got != x {
		t.Errorf("3^1 = %v", got)
	}
	if got := x.Pow(5); got != New(243) {
		t.Errorf("3^5 = %v, want 243", got)
	}
	// Fermat's little theorem: x^(p-1) = 1 for x != 0.
	if got := x.Pow(Modulus - 1); got != One {
		t.Errorf("3^(p-1) = %v, want 1", got)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		x := quickElement(a)
		buf := x.Bytes()
		y, err := FromBytes(buf[:])
		return err == nil && x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromBytesRejectsNonCanonical(t *testing.T) {
	bad := Element{Modulus} // not canonical
	buf := bad.Bytes()
	if _, err := FromBytes(buf[:]); err == nil {
		t.Error("FromBytes accepted value == p")
	}
	if _, err := FromBytes([]byte{1, 2}); err == nil {
		t.Error("FromBytes accepted short buffer")
	}
}

func TestFromBig(t *testing.T) {
	var v big.Int
	v.SetUint64(Modulus)
	v.Add(&v, big.NewInt(7))
	if got := FromBig(&v); got != New(7) {
		t.Errorf("FromBig(p+7) = %v, want 7", got)
	}
	neg := big.NewInt(-1)
	if got := FromBig(neg); got != New(Modulus-1) {
		t.Errorf("FromBig(-1) = %v, want p-1", got)
	}
}

func TestRandomInRange(t *testing.T) {
	for i := 0; i < 100; i++ {
		e, err := Random()
		if err != nil {
			t.Fatal(err)
		}
		if e.Uint64() >= Modulus {
			t.Fatalf("Random() out of range: %v", e)
		}
	}
}

func TestRandomNotConstant(t *testing.T) {
	seen := make(map[Element]bool)
	for i := 0; i < 20; i++ {
		seen[MustRandom()] = true
	}
	if len(seen) < 2 {
		t.Error("Random() appears constant")
	}
}

func TestRandomVec(t *testing.T) {
	v, err := RandomVec(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 16 {
		t.Fatalf("len = %d", len(v))
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := New(0x123456789abcdef), New(0xfedcba987654321%Modulus)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = x.Mul(y)
	}
	_ = x
}

func BenchmarkInv(b *testing.B) {
	x := New(0x123456789abcdef)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x, _ = x.Inv()
	}
	_ = x
}

func TestBatchInv(t *testing.T) {
	f := func(raw []uint64) bool {
		xs := make([]Element, 0, len(raw))
		for _, v := range raw {
			e := New(v)
			if e.IsZero() {
				e = One
			}
			xs = append(xs, e)
		}
		invs, err := BatchInv(xs)
		if err != nil {
			return false
		}
		for i := range xs {
			if xs[i].Mul(invs[i]) != One {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBatchInvZero(t *testing.T) {
	if _, err := BatchInv([]Element{One, Zero, One}); err != ErrNotInvertible {
		t.Errorf("err = %v, want ErrNotInvertible", err)
	}
	out, err := BatchInv(nil)
	if err != nil || out != nil {
		t.Errorf("BatchInv(nil) = %v, %v", out, err)
	}
}

func BenchmarkBatchInv64(b *testing.B) {
	xs := MustRandomVec(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BatchInv(xs); err != nil {
			b.Fatal(err)
		}
	}
}
