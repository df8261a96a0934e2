// Package cowcache is the one precompute cache behind the engines: a
// copy-on-write map with lock-free reads, for values that are expensive
// to build, immutable once built, and looked up on hot paths (the packed
// sharing domains, the modexp fixed-base tables and power ladders, the
// integer Lagrange vectors).
//
// One policy, for every user:
//
//   - Load is an atomic pointer load plus a map lookup; readers never
//     take a lock and never allocate.
//   - LoadOrBuild runs the build OUTSIDE the writer lock, then re-checks
//     under it: the first stored value wins and every caller is handed
//     that one, so a lost race wastes one build and nothing else.
//   - Writers clone the map and swap the pointer. A bounded map (Max > 0)
//     that is full is cleared wholesale instead of cloned, keeping the
//     steady-state working set hot while capping worst-case memory.
//
// Maps are meant to be package-level variables: the point geometry and
// the bases they precompute for are fixed per process, not per run.
package cowcache

import (
	"sync"
	"sync/atomic"

	"yosompc/internal/telemetry"
)

// Map is a copy-on-write cache from K to V. The zero value is an empty,
// unbounded map ready for use; a Map must not be copied after first use.
type Map[K comparable, V any] struct {
	// Max bounds the number of entries when positive: an insert into a
	// map already holding Max entries drops them all first. Set it
	// before the first use.
	Max int
	// Stats, when non-nil, receives one Hit per LoadOrBuild that found
	// its value stored and one Miss per LoadOrBuild that did not. Several
	// Maps may share one Stats.
	Stats *Stats

	mu sync.Mutex // serializes writers; readers never take it
	m  atomic.Pointer[map[K]V]
}

// Load returns the value stored for key, if any.
func (c *Map[K, V]) Load(key K) (v V, ok bool) {
	if m := c.m.Load(); m != nil {
		v, ok = (*m)[key]
	}
	return v, ok
}

// LoadOrBuild returns the value stored for key, building and storing it
// when there is none. loaded reports whether the returned value was
// already stored — by an earlier call or by a concurrent one that won
// the race, in which case this call's own build result is discarded. A
// build error is returned as is and nothing is cached.
func (c *Map[K, V]) LoadOrBuild(key K, build func(K) (V, error)) (v V, loaded bool, err error) {
	if v, loaded = c.Load(key); !loaded {
		if v, err = build(key); err == nil {
			v, loaded = c.store(key, v)
		}
	}
	c.Stats.record(loaded)
	return v, loaded, err
}

// store publishes v under key unless a value got there first, and
// returns the value now stored and whether it was the earlier one.
func (c *Map[K, V]) store(key K, v V) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keep map[K]V
	if old := c.m.Load(); old != nil {
		if prev, ok := (*old)[key]; ok {
			return prev, true
		}
		if c.Max <= 0 || len(*old) < c.Max {
			keep = *old
		}
	}
	next := make(map[K]V, len(keep)+1)
	for k, kept := range keep {
		next[k] = kept
	}
	next[key] = v
	c.m.Store(&next)
	return v, false
}

// Reset drops every entry.
func (c *Map[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Store(nil)
}

// Stats is a hit/miss counter pair. A Map records into the one named by
// its Stats field; an owner whose notion of a hit is not "the key was
// stored" (to modexp a table too small for the exponent at hand is a
// miss) leaves that field nil and calls Hit and Miss itself. The zero
// value is ready for use.
type Stats struct {
	hits, misses atomic.Int64
	mirror       atomic.Pointer[mirror]
}

type mirror struct{ hits, misses *telemetry.Counter }

// Hit records one cache hit.
func (s *Stats) Hit() {
	s.hits.Add(1)
	if m := s.mirror.Load(); m != nil {
		m.hits.Inc()
	}
}

// Miss records one cache miss.
func (s *Stats) Miss() {
	s.misses.Add(1)
	if m := s.mirror.Load(); m != nil {
		m.misses.Inc()
	}
}

// record is Hit or Miss on a Stats that may be nil.
func (s *Stats) record(hit bool) {
	if s == nil {
		return
	}
	if hit {
		s.Hit()
	} else {
		s.Miss()
	}
}

// Load returns the totals since the last Reset.
func (s *Stats) Load() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// Instrument mirrors every later Hit and Miss into reg as the counters
// "<prefix>_hits" and "<prefix>_misses"; a nil reg detaches the previous
// registry. The caches are process-wide, so when instrumented runs
// overlap the last-installed registry wins; Load always reports the
// process totals.
func (s *Stats) Instrument(reg *telemetry.Registry, prefix string) {
	// A nil registry hands out nil counters, whose methods are no-ops.
	s.mirror.Store(&mirror{
		hits:   reg.Counter(prefix + "_hits"),
		misses: reg.Counter(prefix + "_misses"),
	})
}

// Reset zeroes the totals; an installed registry stays installed.
func (s *Stats) Reset() {
	s.hits.Store(0)
	s.misses.Store(0)
}
