package field

import "fmt"

// Vector operations. These are used pervasively by the packed secret-sharing
// layer, where k secrets travel together as one vector.

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

// ScalarMulVec returns c·a element-wise.
func ScalarMulVec(c Element, a []Element) []Element {
	out := make([]Element, len(a))
	for i := range a {
		out[i] = c.Mul(a[i])
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

// InnerProduct returns Σ a_i·b_i.
func InnerProduct(a, b []Element) Element {
	mustSameLen("InnerProduct", a, b)
	var acc Element
	for i := range a {
		acc = acc.Add(a[i].Mul(b[i]))
	}
	return acc
}

// Sum returns Σ a_i.
func Sum(a []Element) Element {
	var acc Element
	for _, v := range a {
		acc = acc.Add(v)
	}
	return acc
}

// EqualVec reports whether two vectors are identical.
func EqualVec(a, b []Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CloneVec returns a copy of a. Sharing layers copy at API boundaries so
// callers cannot alias internal state.
func CloneVec(a []Element) []Element {
	out := make([]Element, len(a))
	copy(out, a)
	return out
}

// Zeroize overwrites every element of v with zero. Sharing and protocol
// layers call it (usually via defer) on buffers that held secret
// material — polynomial coefficients, sampled randomness — so share data
// does not linger in heap pages after the role that held it has spoken.
// The wipe goes through a package-level sink so the compiler cannot
// dead-store-eliminate it.
func Zeroize(v []Element) {
	for i := range v {
		v[i] = Element{}
	}
	zeroizeSink(v)
}

// zeroizeSink defeats dead-store elimination of the wipe loop: an
// indirect call through a package variable keeps the cleared buffer
// observable as far as the compiler can prove.
var zeroizeSink = func([]Element) {}

// AppendVecBytes appends the fixed-size encodings of all elements to dst.
func AppendVecBytes(dst []byte, a []Element) []byte {
	for _, v := range a {
		dst = v.AppendBytes(dst)
	}
	return dst
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

func mustSameLen(op string, a, b []Element) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("field: %s: length mismatch %d != %d", op, len(a), len(b)))
	}
}
