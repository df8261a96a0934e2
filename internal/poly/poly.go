// Package poly implements univariate polynomials over the MPC field,
// including Lagrange interpolation at arbitrary point sets. The packed
// secret-sharing layer and the homomorphic packing step of the offline phase
// are built on these primitives.
package poly

import (
	"errors"
	"fmt"

	"yosompc/internal/field"
)

// Polynomial is a polynomial over F_p in coefficient form, little-endian:
// coeffs[i] is the coefficient of x^i. The empty polynomial is the zero
// polynomial.
type Polynomial struct {
	coeffs []field.Element
}

// ErrDuplicatePoint is returned when interpolation points repeat.
var ErrDuplicatePoint = errors.New("poly: duplicate interpolation point")

// New builds a polynomial from little-endian coefficients. Trailing zero
// coefficients are trimmed so that Degree is canonical.
func New(coeffs []field.Element) Polynomial {
	end := len(coeffs)
	for end > 0 && coeffs[end-1].IsZero() {
		end--
	}
	return Polynomial{coeffs: field.CloneVec(coeffs[:end])}
}

// Degree returns the degree of p; the zero polynomial has degree -1.
func (p Polynomial) Degree() int { return len(p.coeffs) - 1 }

// IsZero reports whether p is the zero polynomial.
func (p Polynomial) IsZero() bool { return len(p.coeffs) == 0 }

// Coefficients returns a copy of the little-endian coefficients.
func (p Polynomial) Coefficients() []field.Element { return field.CloneVec(p.coeffs) }

// Eval evaluates p at x by Horner's rule.
func (p Polynomial) Eval(x field.Element) field.Element {
	var acc field.Element
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		acc = acc.Mul(x).Add(p.coeffs[i])
	}
	return acc
}

// String implements fmt.Stringer for debugging output.
func (p Polynomial) String() string {
	if p.IsZero() {
		return "0"
	}
	return fmt.Sprintf("poly(deg=%d)", p.Degree())
}

// Interpolate returns the unique polynomial of degree < len(xs) passing
// through all (xs[i], ys[i]). The xs must be pairwise distinct.
//
// The construction is Newton's divided differences — O(n²) field
// operations — not the O(n³) sum of scaled Lagrange basis polynomials
// (the tests' LagrangeBasis reference). Interpolation is unique, so the
// two constructions return bit-identical polynomials;
// TestInterpolateMatchesLagrangeBasis pins that.
func Interpolate(xs, ys []field.Element) (Polynomial, error) {
	if len(xs) != len(ys) {
		return Polynomial{}, fmt.Errorf("poly: interpolate: %d points vs %d values", len(xs), len(ys))
	}
	if err := checkDistinct(xs); err != nil {
		return Polynomial{}, err
	}
	return interpolateNewton(xs, ys)
}

func checkDistinct(xs []field.Element) error {
	seen := make(map[field.Element]struct{}, len(xs))
	for _, x := range xs {
		if _, dup := seen[x]; dup {
			return fmt.Errorf("%w: %v", ErrDuplicatePoint, x)
		}
		seen[x] = struct{}{}
	}
	return nil
}
