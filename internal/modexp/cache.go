package modexp

import (
	"math/big"
	"sync"
	"sync/atomic"

	"yosompc/internal/cowcache"
	"yosompc/internal/telemetry"
)

// The engine's caches are two internal/cowcache maps: power ladders,
// keyed by (base, modulus), and Montgomery contexts (mont.go), keyed by
// the modulus alone. Fixed-base tables are not cached here: each is built
// and held by the owner of its base (the randomizer table of a
// paillier.PublicKey), which knows the base recurs.

// baseKey identifies a base by its canonical residue in [0, modulus), as
// minimal big-endian bytes, so g, g + N and −(N − g) share one entry and
// g and −g do not.
type baseKey struct{ base, modulus string }

func keyOf(base, modulus *big.Int) baseKey {
	if base.Sign() < 0 || base.CmpAbs(modulus) >= 0 {
		base = new(big.Int).Mod(base, modulus)
	}
	return baseKey{string(base.Bytes()), string(modulus.Bytes())}
}

// maxCached bounds each cache: long-running many-epoch processes cycle
// keys, so an unbounded map would grow without limit.
const maxCached = 64

var (
	ladders = cowcache.Map[baseKey, *PowerLadder]{Max: maxCached}
	monts   = cowcache.Map[string, *montgomery]{Max: maxCached}

	// tableStats counts a hit per exponentiation a fixed-base table
	// served, recorded where it happens (FixedBase.Exp, whoever holds the
	// table). Nothing counts a miss: a base without a table is one its
	// owner chose not to build one for.
	tableStats cowcache.Stats
)

// Instrument mirrors the engine's table hit counter into reg as
// "modexp.table_cache_hits" (and a "modexp.table_cache_misses" that
// stays 0); see cowcache.Stats.Instrument.
func Instrument(reg *telemetry.Registry) {
	tableStats.Instrument(reg, "modexp.table_cache")
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
func newLadder(key baseKey) (*PowerLadder, error) {
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
