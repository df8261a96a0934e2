package poly

import (
	"errors"
	"fmt"

	"yosompc/internal/field"
)

// Newton-form interpolation and barycentric evaluation: the O(n²)
// replacements for the Lagrange-basis construction (which multiplies n
// degree-(n-1) polynomials together per call — O(n³) field operations).
// The Lagrange path survives in the tests (LagrangeBasis, poly_test.go)
// as the reference implementation the differential tests pin the fast
// paths against.

// interpolateNewton builds the unique interpolating polynomial through
// (xs[i], ys[i]) by divided differences in O(n²): one table sweep with a
// single batched inversion per level, then a Horner-style expansion of
// the Newton form into monomial coefficients. The xs must be pairwise
// distinct; a duplicate surfaces as a zero denominator and is reported as
// ErrDuplicatePoint.
func interpolateNewton(xs, ys []field.Element) (Polynomial, error) {
	n := len(xs)
	if n == 0 {
		return Polynomial{}, nil
	}
	// dd starts as the values and is overwritten level by level with the
	// divided differences dd[i] = f[x_{i-level}, ..., x_i].
	dd := field.CloneVec(ys)
	denoms := make([]field.Element, 0, n-1)
	for level := 1; level < n; level++ {
		denoms = denoms[:0]
		for i := n - 1; i >= level; i-- {
			denoms = append(denoms, xs[i].Sub(xs[i-level]))
		}
		invs, err := field.BatchInv(denoms)
		if err != nil {
			// A zero x_i - x_{i-level} means two interpolation points
			// coincide (the points need not be sorted, so the pair is not
			// identified here; checkDistinct pinpoints it for callers that
			// asked for the check).
			return Polynomial{}, fmt.Errorf("%w (found at divided-difference level %d)", ErrDuplicatePoint, level)
		}
		for j, i := 0, n-1; i >= level; j, i = j+1, i-1 {
			dd[i] = dd[i].Sub(dd[i-1]).Mul(invs[j])
		}
	}
	// Expand the Newton form f = dd[0] + (x-x_0)(dd[1] + (x-x_1)(...))
	// into monomial coefficients, highest term first.
	coeffs := make([]field.Element, 1, n)
	coeffs[0] = dd[n-1]
	for i := n - 2; i >= 0; i-- {
		// coeffs ← coeffs·(x - xs[i]) + dd[i].
		coeffs = append(coeffs, coeffs[len(coeffs)-1])
		for j := len(coeffs) - 2; j >= 1; j-- {
			coeffs[j] = coeffs[j-1].Sub(coeffs[j].Mul(xs[i]))
		}
		coeffs[0] = dd[i].Sub(coeffs[0].Mul(xs[i]))
	}
	return New(coeffs), nil
}

// BarycentricWeights returns the weights w_i = 1/Π_{j≠i}(x_i - x_j) of
// the point set xs — the precomputation behind O(n)-per-point Lagrange
// coefficient rows (EvalCoeffsFromWeights). O(n²) multiplications and a
// single batched inversion; duplicates are reported as ErrDuplicatePoint.
func BarycentricWeights(xs []field.Element) ([]field.Element, error) {
	denoms := make([]field.Element, len(xs))
	for i, xi := range xs {
		d := field.One
		for j, xj := range xs {
			if j != i {
				d = d.Mul(xi.Sub(xj))
			}
		}
		denoms[i] = d
	}
	ws, err := field.BatchInv(denoms)
	if err != nil {
		if errors.Is(err, field.ErrNotInvertible) {
			return nil, fmt.Errorf("%w (zero barycentric denominator)", ErrDuplicatePoint)
		}
		return nil, err
	}
	return ws, nil
}

// EvalCoeffsFromWeights returns the Lagrange coefficient row c with
// f(at) = Σ c_i·f(xs[i]) for any polynomial of degree < len(xs), given
// the precomputed barycentric weights of xs. O(n) per call with no
// inversions: c_i = w_i·Π_{j≠i}(at - x_j), assembled from prefix and
// suffix products of the differences. Exact even when `at` coincides
// with a point of xs (the row degenerates to the indicator of that
// point), so callers need no special casing.
func EvalCoeffsFromWeights(xs, ws []field.Element, at field.Element) []field.Element {
	n := len(xs)
	out := make([]field.Element, n)
	if n == 0 {
		return out
	}
	// prefix[i] = Π_{j<i}(at - x_j); suffix accumulates Π_{j>i}(at - x_j)
	// in the backward sweep, so out[i] = w_i·prefix[i]·suffix.
	prefix := make([]field.Element, n)
	acc := field.One
	for i := 0; i < n; i++ {
		prefix[i] = acc
		acc = acc.Mul(at.Sub(xs[i]))
	}
	suffix := field.One
	for i := n - 1; i >= 0; i-- {
		out[i] = ws[i].Mul(prefix[i]).Mul(suffix)
		suffix = suffix.Mul(at.Sub(xs[i]))
	}
	return out
}

// EvalRowsFromWeights returns one coefficient row per evaluation point in
// `ats` — the dense interpolation matrix from values on xs to values on
// ats. O(len(ats)·len(xs)) total; the workhorse the sharing domain uses
// to precompute its share-generation and reconstruction matrices.
func EvalRowsFromWeights(xs, ws []field.Element, ats []field.Element) [][]field.Element {
	rows := make([][]field.Element, len(ats))
	for i, at := range ats {
		rows[i] = EvalCoeffsFromWeights(xs, ws, at)
	}
	return rows
}
