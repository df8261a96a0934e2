package sharing

import (
	"fmt"

	"yosompc/internal/field"
	"yosompc/internal/poly"
)

// The reference implementations the domain engine is pinned against: the
// seed O(n³) Lagrange-basis algorithms, moved here unchanged from
// shamir.go once the differential tests, FuzzDomainVsNaive and the
// engine-vs-naive benchmarks were their only callers.

// SharePackedNaive is the reference implementation of SharePacked:
// interpolate the sharing polynomial through (slots ‖ auxiliary
// randomness) by the original sum-of-scaled-Lagrange-basis construction,
// then evaluate it at every share index. It consumes randomness
// identically to SharePacked and produces identically distributed shares;
// the differential tests and FuzzDomainVsNaive pin the cached engine
// against it bit-for-bit. Use it for cross-checking and benchmarking
// only — it is the O(n³)-per-call path the domain engine exists to
// avoid, kept deliberately independent of the Newton and barycentric
// code the fast paths are built on.
func SharePackedNaive(secrets []field.Element, d, n int) ([]Share, error) {
	k := len(secrets)
	if err := validateParams(n, d, k); err != nil {
		return nil, err
	}
	rnd, err := field.RandomVec(d + 1 - k)
	if err != nil {
		return nil, err
	}
	defer field.Zeroize(rnd)
	return sharePackedNaiveWith(secrets, rnd, d, n)
}

// sharePackedNaiveWith is SharePackedNaive below the randomness seam.
func sharePackedNaiveWith(secrets, rnd []field.Element, d, n int) ([]Share, error) {
	f, err := randomPolynomialThrough(secrets, rnd, d)
	if err != nil {
		return nil, err
	}
	// The sharing polynomial's coefficients determine every secret slot;
	// wipe them once the share evaluations are done.
	defer field.Zeroize(f)
	shares := make([]Share, n)
	for i := 0; i < n; i++ {
		shares[i] = Share{Index: i + 1, Value: eval(f, ShareIndexPoint(i+1))}
	}
	return shares, nil
}

// randomPolynomialThrough returns the unique polynomial of degree ≤ d
// passing through (SlotPoint(j), secrets[j]) for each j and through the
// injected randomness rnd at the auxiliary points x = 1, 2, ... (which
// are disjoint from the slot points). Uniform rnd makes the polynomial
// uniformly random subject to the secret constraints. Reference path
// only: the construction is the original O(n³) Lagrange-basis sum.
func randomPolynomialThrough(secrets, rnd []field.Element, d int) ([]field.Element, error) {
	k := len(secrets)
	xs := SlotPoints(k)
	ys := field.CloneVec(secrets)
	extra := d + 1 - k
	if len(rnd) != extra {
		return nil, fmt.Errorf("sharing: %d randomness values for %d auxiliary points", len(rnd), extra)
	}
	for i := 0; i < extra; i++ {
		xs = append(xs, field.New(uint64(i+1)))
		ys = append(ys, rnd[i])
	}
	return interpolateLagrangeBasis(xs, ys)
}

// interpolateLagrangeBasis interpolates by summing scaled Lagrange basis
// polynomials L_i = Π_{j≠i} (x − x_j)/(x_i − x_j) — the seed algorithm
// every fast path in this package is differentially pinned against — and
// returns the little-endian coefficients. Interpolation is unique and
// field arithmetic exact, so it agrees bit-for-bit with the Newton and
// barycentric routes while sharing no code with them.
func interpolateLagrangeBasis(xs, ys []field.Element) ([]field.Element, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("sharing: interpolate: %d points vs %d values", len(xs), len(ys))
	}
	acc := make([]field.Element, len(xs))
	for i, xi := range xs {
		num, den := []field.Element{field.One}, field.One
		for j, xj := range xs {
			if j == i {
				continue
			}
			// num ·= (x − x_j), from the top coefficient down.
			num = append(num, field.Zero)
			for d := len(num) - 1; d > 0; d-- {
				num[d] = num[d-1].Sub(num[d].Mul(xj))
			}
			num[0] = num[0].Mul(xj).Neg()
			den = den.Mul(xi.Sub(xj))
		}
		inv, err := den.Inv()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", poly.ErrDuplicatePoint, xi)
		}
		scale := ys[i].Mul(inv)
		for d, c := range num {
			acc[d] = acc[d].Add(c.Mul(scale))
		}
	}
	return acc, nil
}

// eval evaluates little-endian coefficients f at x by Horner's rule.
func eval(f []field.Element, x field.Element) field.Element {
	var acc field.Element
	for i := len(f) - 1; i >= 0; i-- {
		acc = acc.Mul(x).Add(f[i])
	}
	return acc
}

// ReconstructPackedNaive is the reference implementation of
// ReconstructPacked: interpolate the sharing polynomial in coefficient
// form (seed O(d³) Lagrange-basis construction) and evaluate it at the
// slot points. Kept for differential testing and benchmarking of the
// cached engine.
func ReconstructPackedNaive(shares []Share, d, k int) ([]field.Element, error) {
	if len(shares) < d+1 {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(shares), d+1)
	}
	xs := make([]field.Element, d+1)
	ys := make([]field.Element, d+1)
	for i := 0; i < d+1; i++ {
		xs[i] = ShareIndexPoint(shares[i].Index)
		ys[i] = shares[i].Value
	}
	f, err := interpolateLagrangeBasis(xs, ys) //yosolint:vartime reconstruction-side interpolation: the caller holds the shares it interpolates
	if err != nil {
		return nil, err
	}
	for _, s := range shares[d+1:] {
		if eval(f, ShareIndexPoint(s.Index)) != s.Value { //yosolint:vartime reconstruction-side consistency check on the naive reference path
			return nil, fmt.Errorf("%w: share %d deviates", ErrInconsistentShares, s.Index)
		}
	}
	secrets := make([]field.Element, k)
	for j := 0; j < k; j++ {
		secrets[j] = eval(f, SlotPoint(j))
	}
	return secrets, nil
}

// constantPackedShareNaive is the reference path of ConstantPackedShare
// (direct Lagrange evaluation), pinned against the domain row by the
// differential tests.
func constantPackedShareNaive(c []field.Element, index int) (Share, error) {
	coeffs, err := lagrangeCoeffs(SlotPoints(len(c)), ShareIndexPoint(index))
	if err != nil {
		return Share{}, err
	}
	return Share{Index: index, Value: field.InnerProduct(coeffs, c)}, nil
}

// lagrangeCoeffs returns c_i = Π_{j≠i} (at − x_j)/(x_i − x_j), so that
// f(at) = Σ c_i·f(xs[i]) for every f of degree < len(xs).
func lagrangeCoeffs(xs []field.Element, at field.Element) ([]field.Element, error) {
	c := make([]field.Element, len(xs))
	for i, xi := range xs {
		num, den := field.One, field.One
		for j, xj := range xs {
			if j != i {
				num, den = num.Mul(at.Sub(xj)), den.Mul(xi.Sub(xj))
			}
		}
		inv, err := den.Inv()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", poly.ErrDuplicatePoint, xi)
		}
		c[i] = num.Mul(inv)
	}
	return c, nil
}
