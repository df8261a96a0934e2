package modexp

import (
	"yosompc/internal/cowcache"
	"yosompc/internal/telemetry"
)

// The engine's one cache is an internal/cowcache map of Montgomery
// contexts (mont.go), keyed by the modulus. Fixed-base tables are not
// cached here: each is built and held by the owner of its base (the
// randomizer table of a paillier.PublicKey), which knows the base recurs.

// maxCached bounds the cache: long-running processes cycle keys, so an
// unbounded map would grow without limit.
const maxCached = 64

var (
	monts = cowcache.Map[string, *montgomery]{Max: maxCached}

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
