// Package field implements arithmetic in the prime field F_p with
// p = 2^61 - 1 (the eighth Mersenne prime).
//
// The Mersenne structure admits fast reduction without division: for any
// 122-bit product hi·2^64 + lo, the value is congruent to
// (hi·8 + lo>>61) + (lo & p) modulo p, because 2^61 ≡ 1 (mod p).
//
// All values of type Element are kept in canonical form, i.e. in the range
// [0, p). The zero value of Element is the field's additive identity and is
// ready to use.
//
// Element is opaque: its representation is an unexported struct field, so
// outside this package raw + - * / %, ordering comparisons, Element(3) and
// uint64(e) do not compile and every value is built by New, FromBytes or
// the arithmetic methods. ==, map keys and the []Element memory layout are
// those of a uint64.
package field

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// Modulus is the field characteristic p = 2^61 - 1.
const Modulus uint64 = (1 << 61) - 1

// ElementSize is the serialized size of an Element in bytes.
const ElementSize = 8

// Element is an element of F_p in canonical form [0, p).
type Element struct{ v uint64 }

// Common small constants.
var (
	Zero = Element{}
	One  = Element{1}
)

// ErrNotInvertible is returned when asked for the inverse of zero.
var ErrNotInvertible = errors.New("field: zero has no multiplicative inverse")

// New reduces an arbitrary uint64 into the field.
func New(v uint64) Element {
	// v < 2^64 = 8·2^61, so at most two folding rounds are needed.
	v = (v >> 61) + (v & Modulus)
	if v >= Modulus {
		v -= Modulus
	}
	return Element{v}
}

// NewInt64 reduces a signed integer into the field.
func NewInt64(v int64) Element {
	if v >= 0 {
		return New(uint64(v))
	}
	m := New(uint64(-v))
	return m.Neg()
}

// FromBig reduces a big integer into the field.
func FromBig(v *big.Int) Element {
	var m big.Int
	m.Mod(v, modulusBig)
	return Element{m.Uint64()}
}

var modulusBig = new(big.Int).SetUint64(Modulus)

// ModulusBig returns the field characteristic as a big.Int.
// The caller must not mutate the returned value.
func ModulusBig() *big.Int { return modulusBig }

// Big returns the element as a big.Int.
func (e Element) Big() *big.Int { return new(big.Int).SetUint64(e.v) }

// Uint64 returns the canonical representative in [0, p).
func (e Element) Uint64() uint64 { return e.v }

// IsZero reports whether e is the additive identity.
func (e Element) IsZero() bool { return e.v == 0 }

// Add returns e + o mod p.
func (e Element) Add(o Element) Element {
	s := e.v + o.v // < 2p < 2^62, no overflow
	if s >= Modulus {
		s -= Modulus
	}
	return Element{s}
}

// Sub returns e - o mod p.
func (e Element) Sub(o Element) Element {
	d := e.v - o.v
	if e.v < o.v {
		d += Modulus
	}
	return Element{d}
}

// Neg returns -e mod p.
func (e Element) Neg() Element {
	if e.v == 0 {
		return Element{}
	}
	return Element{Modulus - e.v}
}

// Mul returns e · o mod p using Mersenne folding.
func (e Element) Mul(o Element) Element {
	hi, lo := bits.Mul64(e.v, o.v)
	// e·o = hi·2^64 + lo = hi·8·2^61 + lo ≡ hi·8 + (lo>>61) + (lo & p).
	r := hi<<3 | lo>>61 // < 2^61 since hi < 2^58 for canonical inputs
	s := r + (lo & Modulus)
	if s >= Modulus {
		s -= Modulus
	}
	return Element{s}
}

// Square returns e² mod p.
func (e Element) Square() Element { return e.Mul(e) }

// Double returns 2e mod p.
func (e Element) Double() Element { return e.Add(e) }

// Pow returns e^exp mod p by square-and-multiply.
func (e Element) Pow(exp uint64) Element {
	result := One
	base := e
	for exp > 0 {
		if exp&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Square()
		exp >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of e, or ErrNotInvertible for zero.
func (e Element) Inv() (Element, error) {
	if e.v == 0 {
		return Element{}, ErrNotInvertible
	}
	// Fermat: e^(p-2) mod p.
	return e.Pow(Modulus - 2), nil
}

// MustInv returns the inverse of e and panics on zero. It is intended for
// call sites where non-zeroness is a structural invariant (e.g. distinct
// evaluation points), not for data-dependent values.
func (e Element) MustInv() Element {
	inv, err := e.Inv()
	if err != nil {
		panic(err)
	}
	return inv
}

// Div returns e / o mod p, or ErrNotInvertible when o is zero.
func (e Element) Div(o Element) (Element, error) {
	inv, err := o.Inv()
	if err != nil {
		return Element{}, err
	}
	return e.Mul(inv), nil
}

// Equal reports whether two elements are equal.
func (e Element) Equal(o Element) bool { return e == o }

// String implements fmt.Stringer.
func (e Element) String() string { return fmt.Sprintf("%d", e.v) }

// Bytes returns the fixed-size big-endian encoding of e.
func (e Element) Bytes() [ElementSize]byte {
	var buf [ElementSize]byte
	binary.BigEndian.PutUint64(buf[:], e.v)
	return buf
}

// AppendBytes appends the fixed-size encoding of e to dst.
func (e Element) AppendBytes(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, e.v)
}

// FromBytes decodes an element from its fixed-size encoding. It rejects
// non-canonical encodings (values ≥ p).
func FromBytes(buf []byte) (Element, error) {
	if len(buf) < ElementSize {
		return Element{}, fmt.Errorf("field: short encoding: %d bytes", len(buf))
	}
	v := binary.BigEndian.Uint64(buf[:ElementSize])
	if v >= Modulus {
		return Element{}, fmt.Errorf("field: non-canonical encoding %d", v)
	}
	return Element{v}, nil
}

// Random returns a uniformly random field element from crypto/rand.
func Random() (Element, error) {
	var buf [8]byte
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			return Element{}, fmt.Errorf("field: sampling randomness: %w", err)
		}
		// Rejection-sample 61-bit values for exact uniformity.
		v := binary.BigEndian.Uint64(buf[:]) >> 3 // 61 bits
		if v < Modulus {
			return Element{v}, nil
		}
	}
}

// MustRandom returns a uniformly random element and panics if the system
// randomness source fails (an unrecoverable environment error).
func MustRandom() Element {
	e, err := Random()
	if err != nil {
		panic(err)
	}
	return e
}

// RandomVec returns a vector of n uniformly random field elements.
func RandomVec(n int) ([]Element, error) {
	out := make([]Element, n)
	for i := range out {
		e, err := Random()
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// MustRandomVec is RandomVec panicking on randomness failure. The caller
// owns the returned buffer and is responsible for wiping it (Zeroize)
// once the secret material it carries is no longer needed.
func MustRandomVec(n int) []Element {
	v, err := RandomVec(n)
	if err != nil {
		panic(err)
	}
	return v //yosolint:owner constructor: the caller owns the sampled vector and wipes it after use
}

// BatchInv inverts every element of xs with a single field inversion
// (Montgomery's trick): prefix products, one Inv, then back-substitution.
// It returns ErrNotInvertible if any input is zero. For the Lagrange
// machinery this turns O(m) Fermat exponentiations into one.
func BatchInv(xs []Element) ([]Element, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	prefix := make([]Element, len(xs))
	acc := One
	for i, x := range xs {
		if x.IsZero() {
			return nil, ErrNotInvertible
		}
		prefix[i] = acc
		acc = acc.Mul(x)
	}
	inv, err := acc.Inv()
	if err != nil {
		return nil, err
	}
	out := make([]Element, len(xs))
	for i := len(xs) - 1; i >= 0; i-- {
		out[i] = inv.Mul(prefix[i])
		inv = inv.Mul(xs[i])
	}
	return out, nil
}
