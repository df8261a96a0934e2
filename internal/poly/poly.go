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

// Zero returns the zero polynomial.
func Zero() Polynomial { return Polynomial{} }

// Zeroize wipes the coefficient buffer in place. Sharing layers call it
// (usually via defer) on polynomials that interpolated secret values —
// a packed sharing polynomial's coefficients determine every secret slot,
// so they must not outlive the share computation.
func (f Polynomial) Zeroize() { field.Zeroize(f.coeffs) }

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

// MustRandom is Random panicking on randomness failure.
func MustRandom(deg int) Polynomial {
	p, err := Random(deg)
	if err != nil {
		panic(err)
	}
	return p
}

// Degree returns the degree of p; the zero polynomial has degree -1.
func (p Polynomial) Degree() int { return len(p.coeffs) - 1 }

// IsZero reports whether p is the zero polynomial.
func (p Polynomial) IsZero() bool { return len(p.coeffs) == 0 }

// Coefficients returns a copy of the little-endian coefficients.
func (p Polynomial) Coefficients() []field.Element { return field.CloneVec(p.coeffs) }

// Coefficient returns the coefficient of x^i (zero beyond the degree).
func (p Polynomial) Coefficient(i int) field.Element {
	if i < 0 || i >= len(p.coeffs) {
		return field.Zero
	}
	return p.coeffs[i]
}

// Eval evaluates p at x by Horner's rule.
func (p Polynomial) Eval(x field.Element) field.Element {
	var acc field.Element
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		acc = acc.Mul(x).Add(p.coeffs[i])
	}
	return acc
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
	return New(field.ScalarMulVec(c, p.coeffs))
}

// Equal reports whether p and q are identical polynomials.
func (p Polynomial) Equal(q Polynomial) bool { return field.EqualVec(p.coeffs, q.coeffs) }

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
// (which remains available through LagrangeBasis for callers that need
// the basis itself). Interpolation is unique, so the two constructions
// return bit-identical polynomials; TestInterpolateMatchesLagrangeBasis
// pins that.
func Interpolate(xs, ys []field.Element) (Polynomial, error) {
	if len(xs) != len(ys) {
		return Polynomial{}, fmt.Errorf("poly: interpolate: %d points vs %d values", len(xs), len(ys))
	}
	if err := checkDistinct(xs); err != nil {
		return Polynomial{}, err
	}
	return interpolateNewton(xs, ys)
}

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
// of degree < len(xs): f(at) = Σ c_i · f(xs[i]). This is the workhorse of
// share reconstruction and of the homomorphic packing step (offline Step 4),
// where the same coefficients are applied inside the threshold encryption.
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
