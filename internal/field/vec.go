package field

import "fmt"

// Vector operations. These are used pervasively by the packed secret-sharing
// layer, where k secrets travel together as one vector.

// InnerProduct returns Σ a_i·b_i.
func InnerProduct(a, b []Element) Element {
	mustSameLen("InnerProduct", a, b)
	var acc Element
	for i := range a {
		acc = acc.Add(a[i].Mul(b[i]))
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

func mustSameLen(op string, a, b []Element) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("field: %s: length mismatch %d != %d", op, len(a), len(b)))
	}
}
