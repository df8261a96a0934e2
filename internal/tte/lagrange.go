package tte

import (
	"fmt"
	"math/big"
	"sort"
	"strconv"

	"yosompc/internal/cowcache"
)

// Integer Lagrange machinery for exponent arithmetic. With evaluation
// points drawn from {1..n}, the Lagrange coefficient denominators divide
// Δ = n!, so Λ_i = Δ·λ_i(0) is always an integer; working with the Λ_i
// avoids inverting modulo the secret group order.

// factorial returns n! as a big integer.
func factorial(n int) *big.Int {
	out := big.NewInt(1)
	for i := 2; i <= n; i++ {
		out.Mul(out, big.NewInt(int64(i)))
	}
	return out
}

// The Λ vectors depend only on (Δ, xs, at) and the same qualified sets
// recur across every share-recovery and decryption round, so computed
// vectors are cached (internal/cowcache). The cache is bounded:
// adversarially many distinct share subsets (e.g. during robust decoding
// sweeps) clear it wholesale instead of growing it without limit, while
// the steady-state working set — a handful of qualified sets per run —
// stays hot.
var lagrangeCache = cowcache.Map[string, []*big.Int]{Max: 256}

// lagrangeKey serializes (Δ, xs, at) into a cache key. Δ is keyed by
// value, not identity: callers rebuild it per run.
func lagrangeKey(delta *big.Int, xs []int, at int) string {
	buf := make([]byte, 0, 16+8*len(xs))
	buf = append(buf, delta.Text(16)...)
	buf = append(buf, '@')
	buf = strconv.AppendInt(buf, int64(at), 10)
	for _, x := range xs {
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	return string(buf)
}

// cloneBigs deep-copies a Λ vector so cache entries can never be
// corrupted through a returned alias.
func cloneBigs(in []*big.Int) []*big.Int {
	out := make([]*big.Int, len(in))
	for i, v := range in {
		out[i] = new(big.Int).Set(v)
	}
	return out
}

// scaledLagrangeAt returns the integers Λ_i = Δ·λ_i(at) for the point set
// xs (distinct values in 1..n) evaluated at `at`, where λ_i are the
// rational Lagrange coefficients: f(at) = Σ λ_i·f(x_i) for deg f < len(xs).
// Results are cached per (Δ, xs, at); the returned vector is the caller's
// to mutate.
func scaledLagrangeAt(delta *big.Int, xs []int, at int) ([]*big.Int, error) {
	if err := checkDistinctInts(xs); err != nil {
		return nil, err
	}
	cached, _, err := lagrangeCache.LoadOrBuild(lagrangeKey(delta, xs, at), func(string) ([]*big.Int, error) {
		return computeScaledLagrange(delta, xs, at)
	})
	if err != nil {
		return nil, err
	}
	return cloneBigs(cached), nil
}

// computeScaledLagrange is scaledLagrangeAt below the cache. The
// division is exact by construction; this is verified and reported as an
// error otherwise (which would indicate points outside 1..n).
func computeScaledLagrange(delta *big.Int, xs []int, at int) ([]*big.Int, error) {
	out := make([]*big.Int, len(xs))
	for i, xi := range xs {
		num := new(big.Int).Set(delta)
		den := big.NewInt(1)
		for j, xj := range xs {
			if j == i {
				continue
			}
			num.Mul(num, big.NewInt(int64(at-xj)))
			den.Mul(den, big.NewInt(int64(xi-xj)))
		}
		q, r := new(big.Int).QuoRem(num, den, new(big.Int))
		if r.Sign() != 0 {
			return nil, fmt.Errorf("tte: Δ·λ_%d(%d) is not an integer (points %v)", xi, at, xs)
		}
		out[i] = q
	}
	return out, nil
}

// scaledLagrangeAtZero is the common reconstruction-at-zero case.
func scaledLagrangeAtZero(delta *big.Int, xs []int) ([]*big.Int, error) {
	return scaledLagrangeAt(delta, xs, 0)
}

func checkDistinctInts(xs []int) error {
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return fmt.Errorf("%w: %d", ErrDuplicateIndex, sorted[i])
		}
	}
	return nil
}
