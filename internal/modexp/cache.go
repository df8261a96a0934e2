package modexp

import (
	"math/big"
	"sync"
	"sync/atomic"

	"yosompc/internal/cowcache"
	"yosompc/internal/telemetry"
)

// The engine's caches are internal/cowcache maps: three keyed by (base,
// modulus) — fixed-base tables, the sightings that gate their promotion,
// and power ladders — and one keyed by the modulus alone, its Montgomery
// context (mont.go).
//
// A fixed-base table costs a little over one naive exponentiation to
// build, so caching every base seen once would lose money on one-shot bases
// (sigma-protocol commitments, fresh ciphertexts). Tables are therefore
// promoted on second use: the first ExpCachedSigned call on a (base,
// modulus) pair runs the plain path and records the sighting; the second
// builds and caches the table. Recurring bases — Shoup verification keys,
// a round's squared ciphertext c², partial-decryption shares — hit the
// table from their second or third use on, while one-shot bases never pay
// the build.

// tableKey identifies a base by its canonical residue in [0, modulus), as
// minimal big-endian bytes, so g, g + N and −(N − g) share one entry and
// g and −g do not.
type tableKey struct{ base, modulus string }

func keyOf(base, modulus *big.Int) tableKey {
	if base.Sign() < 0 || base.CmpAbs(modulus) >= 0 {
		base = new(big.Int).Mod(base, modulus)
	}
	return tableKey{string(base.Bytes()), string(modulus.Bytes())}
}

// Cache bounds. Long-running many-epoch processes cycle verification
// keys, so an unbounded map would grow without limit.
const (
	maxCachedTables = 64
	maxSeenBases    = 1024
)

var (
	tableCache = cowcache.Map[tableKey, *tableSlot]{Max: maxCachedTables}
	seenCache  = cowcache.Map[tableKey, struct{}]{Max: maxSeenBases}
	ladders    = cowcache.Map[tableKey, *PowerLadder]{Max: maxCachedTables}
	monts      = cowcache.Map[string, *montgomery]{Max: maxCachedTables}

	// tableStats counts a hit per exponentiation a table served, recorded
	// where it happens (FixedBase.Exp, whoever holds the table), and a
	// miss per ExpCachedSigned call that found no prebuilt table, the
	// sighting and build calls included.
	tableStats cowcache.Stats
)

// Instrument mirrors the engine's table-cache hit/miss counters into reg
// as "modexp.table_cache_hits" / "modexp.table_cache_misses"; see
// cowcache.Stats.Instrument.
func Instrument(reg *telemetry.Registry) {
	tableStats.Instrument(reg, "modexp.table_cache")
}

// tableSlot is one base's cached table. The slot is what the map stores
// (first writer wins, like every cowcache entry); the table inside it is
// replaced when a longer exponent needs one covering more bits.
type tableSlot struct{ t atomic.Pointer[FixedBase] }

func newTableSlot(tableKey) (*tableSlot, error) { return new(tableSlot), nil }

// offer installs t unless the slot already covers as many bits. The
// build ran outside any lock; losing a race just wastes one build.
func (s *tableSlot) offer(t *FixedBase) {
	for {
		cur := s.t.Load()
		if (cur != nil && cur.bits >= t.bits) || s.t.CompareAndSwap(cur, t) {
			return
		}
	}
}

// sighting is the seenCache build: the entry's presence is the record.
func sighting(tableKey) (struct{}, error) { return struct{}{}, nil }

// minCachedExpBits is the smallest exponent size worth a table: below
// this the plain path is already a handful of multiplications.
const minCachedExpBits = 64

// ExpCachedSigned computes base^exp mod modulus through the fixed-base
// table cache: a cached table serves the call with one comb walk; an
// uncached base takes the plain ExpSigned path
// and is promoted to a table on its second sighting. Short exponents and
// even moduli (which have no comb) always take the plain path. The result is
// bit-identical to ExpSigned in every case.
func ExpCachedSigned(base, exp, modulus *big.Int) (*big.Int, error) {
	bits := exp.BitLen()
	if bits < minCachedExpBits || !hasMont(modulus) {
		return ExpSigned(base, exp, modulus)
	}
	key := keyOf(base, modulus)
	if slot, ok := tableCache.Load(key); ok {
		if t := slot.t.Load(); t != nil && t.bits >= bits {
			return t.ExpSigned(exp)
		}
	}
	tableStats.Miss()
	if _, seen, _ := seenCache.LoadOrBuild(key, sighting); !seen {
		return ExpSigned(base, exp, modulus)
	}
	// Second sighting (or a cached table too small for this exponent):
	// build outside any lock, sized with headroom so nearby exponent
	// sizes reuse it, then serve from the table so the build call itself
	// is pinned by the differential tests too (uncounted: it was a miss).
	maxBits := bits + bits/8
	if mb := modulus.BitLen(); mb > maxBits {
		maxBits = mb
	}
	t := NewFixedBase(base, modulus, maxBits)
	slot, _, _ := tableCache.LoadOrBuild(key, newTableSlot)
	slot.offer(t)
	return signed(t.comb, exp, modulus)
}

// PowerLadder caches consecutive powers base^0, base^1, ... mod modulus
// in a copy-on-write slice with geometric growth (the ConstDomain.Row
// pattern): epoch counters and Δ-power exponents grow by one per
// resharing, so each epoch's power is one multiplication on top of the
// last instead of a fresh Exp over an ever-longer exponent.
type PowerLadder struct {
	base    *big.Int
	modulus *big.Int
	mu      sync.Mutex
	powers  atomic.Pointer[[]*big.Int]
}

// Ladder returns the process-wide power ladder for (base, modulus),
// creating it on first use.
func Ladder(base, modulus *big.Int) *PowerLadder {
	l, _, _ := ladders.LoadOrBuild(keyOf(base, modulus), newLadder)
	return l
}

// newLadder builds the ladder from its key, so it multiplies by the
// canonical residue whichever representative asked first.
func newLadder(key tableKey) (*PowerLadder, error) {
	return &PowerLadder{
		base:    new(big.Int).SetBytes([]byte(key.base)),
		modulus: new(big.Int).SetBytes([]byte(key.modulus)),
	}, nil
}

// Pow returns base^k mod modulus for k ≥ 0, extending the cached ladder
// by repeated multiplication when needed. Each power is the canonical
// residue, bit-identical to big.Int.Exp(base, k, modulus). Negative k
// falls back to the signed plain path.
func (l *PowerLadder) Pow(k int) (*big.Int, error) {
	if k < 0 {
		return ExpSigned(l.base, big.NewInt(int64(k)), l.modulus)
	}
	if p := l.powers.Load(); p != nil && k < len(*p) {
		return (*p)[k], nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.powers.Load()
	if old != nil && k < len(*old) {
		return (*old)[k], nil
	}
	// Grow geometrically so amortized extension is O(1) multiplications
	// per epoch. Only Mul/Mod run under the mutex — the ladder never
	// calls big.Int.Exp here.
	capNeeded := k + 1
	if old != nil && 2*len(*old) > capNeeded {
		capNeeded = 2 * len(*old)
	}
	next := make([]*big.Int, capNeeded)
	start := 0
	if old != nil {
		start = copy(next, *old)
	}
	for i := start; i < capNeeded; i++ {
		if i == 0 {
			next[i] = new(big.Int).Mod(bigOne, l.modulus)
			continue
		}
		v := new(big.Int).Mul(next[i-1], l.base)
		next[i] = v.Mod(v, l.modulus)
	}
	l.powers.Store(&next)
	return next[k], nil
}
