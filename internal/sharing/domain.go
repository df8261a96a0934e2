package sharing

import (
	"fmt"
	"sync"
	"sync/atomic"

	"yosompc/internal/cowcache"
	"yosompc/internal/field"
	"yosompc/internal/poly"
	"yosompc/internal/telemetry"
)

// The evaluation-domain engine: packed Shamir in this codebase always
// works over the same point geometry — secrets at the slot points
// 0, -1, ..., -(k-1), auxiliary randomness at 1..d+1-k, shares at 1..n —
// so the Lagrange algebra for a given (k, d, n) never changes between
// calls. A Domain precomputes that algebra once and every subsequent
// sharing or reconstruction is a cached-row inner product: one amortized
// O(n²) setup, then O(n·d) per sharing instead of the O(n³) per-call
// interpolation of the seed algorithm. The differential tests and
// FuzzDomainVsNaive pin the engine bit-for-bit to that algorithm, which
// lives on in this package's test files.

// Domain is the precomputed share algebra of one packed-sharing shape:
// packing factor K, polynomial degree D, committee size N. All fields are
// immutable after construction; a Domain is safe for unbounded concurrent
// use.
type Domain struct {
	// K, D, N echo the cache key: k secrets on a degree-d polynomial
	// shared to parties 1..n.
	K, D, N int

	// genRows[i] is the coefficient row mapping the basis values
	// (secrets at the k slot points ‖ randomness at 1..d+1-k) to party
	// i+1's share — the n×(d+1) share-generation matrix. With d = t+k-1
	// its rows are exactly the l_j(i) coefficient vectors of the
	// homomorphic packing in offline Step 4 (read through ShareRow).
	genRows [][]field.Element
}

// domainKey identifies a Domain in the cache.
type domainKey struct{ k, d, n int }

// reconKey identifies a reconstruction-only domain: the canonical-prefix
// weights and slot rows depend on (d, k) but not on any committee size.
type reconKey struct{ d, k int }

// reconDomain is the reconstruction slice of the algebra for the
// canonical share prefix 1..d+1, cached separately because
// reconstruction never needs to know n.
type reconDomain struct {
	prefixWeights []field.Element
	slotRows      [][]field.Element
}

// The three domain caches (internal/cowcache) and their shared hit/miss
// counters.
var (
	domainStats cowcache.Stats
	domainCache = cowcache.Map[domainKey, *Domain]{Stats: &domainStats}
	reconCache  = cowcache.Map[reconKey, *reconDomain]{Stats: &domainStats}
	constCache  = cowcache.Map[int, *ConstDomain]{Stats: &domainStats}
)

// Instrument mirrors the domain-cache hit/miss counters into reg as
// "sharing.domain_cache_hits" / "sharing.domain_cache_misses"; see
// cowcache.Stats.Instrument.
func Instrument(reg *telemetry.Registry) {
	domainStats.Instrument(reg, "sharing.domain_cache")
}

// GetDomain returns the cached evaluation domain for a degree-d packed
// sharing of k secrets to parties 1..n, building and publishing it on
// first use. Parameters are validated exactly like SharePacked.
func GetDomain(k, d, n int) (*Domain, error) {
	if err := validateParams(n, d, k); err != nil {
		return nil, err
	}
	dom, _, err := domainCache.LoadOrBuild(domainKey{k, d, n}, buildDomain)
	return dom, err
}

// buildDomain performs the one-time O(n²) precomputation.
func buildDomain(key domainKey) (*Domain, error) {
	k, d, n := key.k, key.d, key.n
	basis := SlotPoints(k)
	for i := 1; i <= d+1-k; i++ {
		basis = append(basis, field.New(uint64(i)))
	}
	weights, err := poly.BarycentricWeights(basis)
	if err != nil {
		// Unreachable for the structurally distinct slot/aux geometry at
		// supported committee sizes; fail closed anyway.
		return nil, fmt.Errorf("sharing: domain (k=%d d=%d n=%d) basis: %w", k, d, n, err)
	}
	return &Domain{
		K: k, D: d, N: n,
		genRows: poly.EvalRowsFromWeights(basis, weights, ShareIndexPoints(n)),
	}, nil
}

// ShareRow returns party `index`'s share-generation coefficient row: the
// d+1 coefficients applied to (secrets ‖ randomness) to obtain f(index).
// The returned slice aliases the domain's cache and must be treated as
// read-only.
func (dom *Domain) ShareRow(index int) []field.Element {
	return dom.genRows[index-1]
}

// shareWith applies the share-generation matrix to secrets ‖ rnd. It is
// the deterministic half of SharePacked, split out so differential tests
// can drive the fast and naive paths from identical randomness.
func (dom *Domain) shareWith(secrets, rnd []field.Element) []Share {
	v := make([]field.Element, 0, dom.D+1)
	v = append(append(v, secrets...), rnd...)
	defer field.Zeroize(v) // scratch copy of secrets ‖ randomness
	shares := make([]Share, dom.N)
	for i := range shares {
		shares[i] = Share{Index: i + 1, Value: field.InnerProductLazy(dom.genRows[i], v)}
	}
	return shares
}

// getReconDomain returns the cached reconstruction algebra for canonical
// share prefixes (indices exactly 1..d+1).
func getReconDomain(d, k int) *reconDomain {
	rd, _, err := reconCache.LoadOrBuild(reconKey{d, k}, buildReconDomain)
	if err != nil {
		// Points 1..d+1 are distinct by construction, so the weights
		// cannot fail.
		panic(fmt.Sprintf("sharing: canonical prefix weights (d=%d): %v", d, err))
	}
	return rd
}

func buildReconDomain(key reconKey) (*reconDomain, error) {
	prefix := ShareIndexPoints(key.d + 1)
	weights, err := poly.BarycentricWeights(prefix)
	if err != nil {
		return nil, err
	}
	return &reconDomain{
		prefixWeights: weights,
		slotRows:      poly.EvalRowsFromWeights(prefix, weights, SlotPoints(key.k)),
	}, nil
}

// ConstDomain is the cached algebra of constant-packed sharings of a
// public vector for one packing width k (the multiplication-friendliness
// trick of the paper's Section 3.2): the degree-(k-1) polynomial through
// the slot points, evaluated at share indices. Rows grow on demand
// (lock-free reads, copy-on-write growth) because callers ask for
// individual party indices rather than a fixed committee size.
type ConstDomain struct {
	k       int
	slots   []field.Element
	weights []field.Element
	// rows holds coefficient rows for indices 1..len(rows); grown
	// geometrically under mu, snapshotted atomically.
	mu   sync.Mutex
	rows atomic.Pointer[[][]field.Element]
}

// GetConstDomain returns the cached constant-packing domain for public
// vectors of width k.
func GetConstDomain(k int) (*ConstDomain, error) {
	if k < 1 {
		return nil, fmt.Errorf("sharing: constant domain: packing width k=%d < 1", k)
	}
	cd, _, err := constCache.LoadOrBuild(k, buildConstDomain)
	return cd, err
}

func buildConstDomain(k int) (*ConstDomain, error) {
	slots := SlotPoints(k)
	weights, err := poly.BarycentricWeights(slots)
	if err != nil {
		return nil, fmt.Errorf("sharing: constant domain (k=%d): %w", k, err)
	}
	return &ConstDomain{k: k, slots: slots, weights: weights}, nil
}

// Row returns the coefficient row of party `index` (1-based): k
// coefficients with f(index) = row·c for the degree-(k-1) polynomial
// through (slots, c). The slice aliases the cache — read-only. Indices
// below 1 are computed ad hoc without caching (no protocol caller uses
// them; the naive path accepted them, so the engine does too).
func (cd *ConstDomain) Row(index int) []field.Element {
	if index < 1 {
		return poly.EvalCoeffsFromWeights(cd.slots, cd.weights, ShareIndexPoint(index))
	}
	if rp := cd.rows.Load(); rp != nil && index <= len(*rp) {
		return (*rp)[index-1]
	}
	cd.mu.Lock()
	defer cd.mu.Unlock()
	rp := cd.rows.Load()
	have := 0
	if rp != nil {
		have = len(*rp)
	}
	if index <= have {
		return (*rp)[index-1]
	}
	grow := 2 * have
	if grow < index {
		grow = index
	}
	next := make([][]field.Element, grow)
	if rp != nil {
		copy(next, *rp)
	}
	for i := have; i < grow; i++ {
		next[i] = poly.EvalCoeffsFromWeights(cd.slots, cd.weights, ShareIndexPoint(i+1))
	}
	cd.rows.Store(&next)
	return next[index-1]
}

// Share returns party `index`'s share of the constant packed sharing of
// c, which must have width k.
func (cd *ConstDomain) Share(c []field.Element, index int) (Share, error) {
	if len(c) != cd.k {
		return Share{}, fmt.Errorf("sharing: constant domain k=%d applied to %d-vector", cd.k, len(c))
	}
	return Share{Index: index, Value: field.InnerProductLazy(cd.Row(index), c)}, nil
}
