// Package sharing implements Shamir secret sharing and its packed
// generalization (Franklin–Yung), the core algebraic tool of the paper.
//
// Conventions, following the paper's Section 3.2:
//
//   - Party i's share is the evaluation at x = i, for i in 1..n.
//   - Packed secrets occupy the "slot" points x = 0, -1, ..., -(k-1);
//     i.e. secret j (0-based) lives at x = -j (mod p).
//   - A degree-d packed sharing of k secrets needs d+1 shares to
//     reconstruct, and any d-k+1 shares are independent of the secrets.
//
// Standard Shamir is the k = 1 case with the single secret at x = 0.
package sharing

import (
	"errors"
	"fmt"

	"yosompc/internal/field"
	"yosompc/internal/poly"
)

// Share is one party's share of a (possibly packed) sharing: the evaluation
// of the sharing polynomial at X = Index.
type Share struct {
	// Index is the party index in 1..n (the evaluation point).
	Index int
	// Value is the polynomial evaluation at Index.
	Value field.Element
}

// ErrNotEnoughShares is returned when fewer shares than degree+1 are given.
var ErrNotEnoughShares = errors.New("sharing: not enough shares to reconstruct")

// ErrInconsistentShares is returned when the provided shares do not lie on a
// polynomial of the claimed degree. Detecting this matters for GOD: shares
// from roles whose proofs did not verify are excluded before reconstruction.
var ErrInconsistentShares = errors.New("sharing: shares are inconsistent with claimed degree")

// SlotPoint returns the evaluation point storing packed secret j (0-based):
// x = -j mod p.
func SlotPoint(j int) field.Element {
	return field.NewInt64(int64(-j))
}

// SlotPoints returns the k slot points 0, -1, ..., -(k-1).
func SlotPoints(k int) []field.Element {
	out := make([]field.Element, k)
	for j := range out {
		out[j] = SlotPoint(j)
	}
	return out
}

// ShareIndexPoint returns the evaluation point of party index i (1-based).
func ShareIndexPoint(i int) field.Element {
	return field.New(uint64(i))
}

// ShareIndexPoints returns the points for parties 1..n.
func ShareIndexPoints(n int) []field.Element {
	out := make([]field.Element, n)
	for i := range out {
		out[i] = ShareIndexPoint(i + 1)
	}
	return out
}

// Validate checks structural parameters shared by Share and Reconstruct.
func validateParams(n, d, k int) error {
	switch {
	case k < 1:
		return fmt.Errorf("sharing: packing factor k=%d < 1", k)
	case d < k-1:
		return fmt.Errorf("sharing: degree d=%d < k-1=%d cannot determine %d secrets", d, k-1, k)
	case d > n-1:
		return fmt.Errorf("sharing: degree d=%d > n-1=%d cannot be reconstructed by n parties", d, n-1)
	case n < 1:
		return fmt.Errorf("sharing: n=%d < 1", n)
	}
	return nil
}

// SharePacked produces a degree-d packed Shamir sharing of the k secrets for
// parties 1..n. The sharing polynomial passes through the secrets at the slot
// points and is uniformly random subject to that constraint (d-k+1 free
// coefficients are sampled uniformly by interpolating through d-k+1 extra
// random points).
//
// The shares are computed by the cached evaluation-domain engine (see
// domain.go): one precomputed n×(d+1) coefficient matrix per (k, d, n),
// applied to (secrets ‖ randomness), amortized O(n·d) instead of O(n³)
// per call.
func SharePacked(secrets []field.Element, d, n int) ([]Share, error) {
	k := len(secrets)
	if err := validateParams(n, d, k); err != nil {
		return nil, err
	}
	rnd, err := field.RandomVec(d + 1 - k)
	if err != nil {
		return nil, err
	}
	defer field.Zeroize(rnd)
	dom, err := GetDomain(k, d, n)
	if err != nil {
		return nil, err
	}
	return dom.shareWith(secrets, rnd), nil
}

// ReconstructPacked recovers the k packed secrets from at least d+1 shares of
// a degree-d sharing. If more than d+1 shares are provided, the extras are
// used as a consistency check and ErrInconsistentShares is returned when any
// share deviates from the interpolated polynomial.
//
// When the first d+1 shares carry the canonical indices 1..d+1 (the
// committee fast path), the slot evaluations are cached coefficient rows
// from the domain engine; arbitrary index sets fall back to a one-off
// barycentric weight computation — still O(d²) instead of the seed
// algorithm's O(d³).
func ReconstructPacked(shares []Share, d, k int) ([]field.Element, error) {
	if len(shares) < d+1 {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(shares), d+1)
	}
	xs := make([]field.Element, d+1)
	ys := make([]field.Element, d+1)
	canonical := true
	for i := 0; i < d+1; i++ {
		if shares[i].Index != i+1 {
			canonical = false
		}
		xs[i] = ShareIndexPoint(shares[i].Index)
		ys[i] = shares[i].Value
	}
	var (
		weights  []field.Element
		slotRows [][]field.Element
	)
	if canonical {
		rd := getReconDomain(d, k)
		weights, slotRows = rd.prefixWeights, rd.slotRows
	} else {
		var err error
		if weights, err = poly.BarycentricWeights(xs); err != nil {
			return nil, err
		}
	}
	for _, s := range shares[d+1:] {
		row := poly.EvalCoeffsFromWeights(xs, weights, ShareIndexPoint(s.Index))
		if field.InnerProductLazy(row, ys) != s.Value { //yosolint:vartime reconstruction-side consistency check: the reconstructor holds >= d+1 shares and learns the secrets anyway
			return nil, fmt.Errorf("%w: share %d deviates", ErrInconsistentShares, s.Index)
		}
	}
	secrets := make([]field.Element, k)
	for j := 0; j < k; j++ {
		if slotRows != nil {
			secrets[j] = field.InnerProductLazy(slotRows[j], ys)
		} else {
			row := poly.EvalCoeffsFromWeights(xs, weights, SlotPoint(j))
			secrets[j] = field.InnerProductLazy(row, ys)
		}
	}
	return secrets, nil
}
