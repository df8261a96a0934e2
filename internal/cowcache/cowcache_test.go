package cowcache

import (
	"errors"
	"sync"
	"testing"

	"yosompc/internal/telemetry"
)

var errBuild = errors.New("build failed")

// TestLoadOrBuild walks one bounded map through the policy: each step
// names the key asked for, whether its build fails, and what must come
// back.
func TestLoadOrBuild(t *testing.T) {
	var stats Stats
	c := Map[string, int]{Max: 2, Stats: &stats}
	builds := 0
	steps := []struct {
		name       string
		key        string
		fail       bool
		reset      bool
		wantVal    int
		wantLoaded bool
		wantBuilds int      // cumulative build calls after the step
		present    []string // keys Load must find after the step
		absent     []string // keys Load must not find after the step
	}{
		{name: "miss builds and stores", key: "a", wantVal: 1, wantBuilds: 1, present: []string{"a"}},
		{name: "hit returns the stored value without building", key: "a", wantVal: 1, wantLoaded: true, wantBuilds: 1},
		{name: "build error is returned", key: "b", fail: true, wantBuilds: 2, present: []string{"a"}, absent: []string{"b"}},
		{name: "build error was not cached", key: "b", wantVal: 3, wantBuilds: 3, present: []string{"a", "b"}},
		{name: "bound reached: cleared, new key present", key: "c", wantVal: 4, wantBuilds: 4, present: []string{"c"}, absent: []string{"a", "b"}},
		{name: "below the bound again: kept", key: "a", wantVal: 5, wantBuilds: 5, present: []string{"a", "c"}},
		{name: "reset drops everything", key: "c", reset: true, wantVal: 6, wantBuilds: 6, present: []string{"c"}, absent: []string{"a"}},
	}
	for _, s := range steps {
		if s.reset {
			c.Reset()
		}
		got, loaded, err := c.LoadOrBuild(s.key, func(key string) (int, error) {
			if key != s.key {
				t.Errorf("%s: build called with key %q, want %q", s.name, key, s.key)
			}
			builds++
			if s.fail {
				return -1, errBuild
			}
			return builds, nil
		})
		if s.fail != errors.Is(err, errBuild) {
			t.Fatalf("%s: err = %v, want failure %v", s.name, err, s.fail)
		}
		if !s.fail && (got != s.wantVal || loaded != s.wantLoaded) {
			t.Fatalf("%s: got (%d, loaded %v), want (%d, loaded %v)", s.name, got, loaded, s.wantVal, s.wantLoaded)
		}
		if builds != s.wantBuilds {
			t.Fatalf("%s: %d builds so far, want %d", s.name, builds, s.wantBuilds)
		}
		for _, k := range s.present {
			if _, ok := c.Load(k); !ok {
				t.Errorf("%s: key %q missing", s.name, k)
			}
		}
		for _, k := range s.absent {
			if _, ok := c.Load(k); ok {
				t.Errorf("%s: key %q still present", s.name, k)
			}
		}
	}
	// One hit (step 2); every other step built, the failed one included.
	if hits, misses := stats.Load(); hits != 1 || misses != 6 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 6)", hits, misses)
	}
}

// TestZeroValueUnbounded: the zero Map works, never clears, and records
// nowhere.
func TestZeroValueUnbounded(t *testing.T) {
	var c Map[int, int]
	if _, ok := c.Load(0); ok {
		t.Fatal("empty map found a key")
	}
	for i := 0; i < 100; i++ {
		if _, _, err := c.LoadOrBuild(i, func(k int) (int, error) { return k * k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if v, ok := c.Load(i); !ok || v != i*i {
			t.Fatalf("key %d: (%d, %v), want (%d, true)", i, v, ok, i*i)
		}
	}
}

func TestStatsInstrument(t *testing.T) {
	var s Stats
	s.Hit() // before any registry: process totals only
	reg := telemetry.NewRegistry()
	s.Instrument(reg, "pkg.cache")
	s.Hit()
	s.Miss()
	s.Miss()
	if hits, misses := s.Load(); hits != 2 || misses != 2 {
		t.Errorf("totals = (%d, %d), want (2, 2)", hits, misses)
	}
	snap := reg.Snapshot()
	if h, m := snap.Counters["pkg.cache_hits"], snap.Counters["pkg.cache_misses"]; h != 1 || m != 2 {
		t.Errorf("mirrored = (%d, %d), want (1, 2)", h, m)
	}
	s.Instrument(nil, "pkg.cache")
	s.Hit()
	if h := reg.Snapshot().Counters["pkg.cache_hits"]; h != 1 {
		t.Errorf("detached registry still counted: hits = %d", h)
	}
	s.Reset()
	if hits, misses := s.Load(); hits != 0 || misses != 0 {
		t.Errorf("after Reset: (%d, %d)", hits, misses)
	}
}

// TestHitPathDoesNotAllocate: a warm lookup is an atomic load and a map
// read — no lock, no closure, no boxed key — with or without Stats, and
// for a build passed as a plain function.
func TestHitPathDoesNotAllocate(t *testing.T) {
	type key struct{ k, d, n int }
	build := func(k key) (*int, error) { return new(int), nil }
	var stats Stats
	for name, c := range map[string]*Map[key, *int]{
		"plain":    {},
		"counting": {Max: 8, Stats: &stats},
	} {
		want, _, _ := c.LoadOrBuild(key{4, 7, 16}, build)
		if a := testing.AllocsPerRun(100, func() {
			if v, ok := c.Load(key{4, 7, 16}); !ok || v != want {
				t.Fatal("warm Load missed")
			}
		}); a != 0 {
			t.Errorf("%s: Load allocates %v times per call, want 0", name, a)
		}
		if a := testing.AllocsPerRun(100, func() {
			if v, loaded, _ := c.LoadOrBuild(key{4, 7, 16}, build); !loaded || v != want {
				t.Fatal("warm LoadOrBuild missed")
			}
		}); a != 0 {
			t.Errorf("%s: warm LoadOrBuild allocates %v times per call, want 0", name, a)
		}
	}
}

// TestHammer drives one bounded and one unbounded map from 32 goroutines
// over overlapping keys, with resets interleaved; run under -race it is
// the concurrency witness for every cache built on this package. The
// invariant: whatever LoadOrBuild hands back is a value some build
// produced for that key, and — while nothing clears the map — every
// caller is handed the same one, the one Load then finds.
func TestHammer(t *testing.T) {
	type entry struct{ key, builder int }
	const (
		goroutines = 32
		keys       = 12
		iters      = 200
	)
	t.Run("first stored value wins", func(t *testing.T) {
		var c Map[int, *entry]
		got := make([][keys]*entry, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					k := (g + it) % keys
					e, _, err := c.LoadOrBuild(k, func(k int) (*entry, error) { return &entry{k, g}, nil })
					if err != nil || e.key != k {
						t.Errorf("goroutine %d: key %d got %+v, err %v", g, k, e, err)
						return
					}
					if prev := got[g][k]; prev != nil && prev != e {
						t.Errorf("goroutine %d: key %d changed from %p to %p", g, k, prev, e)
						return
					}
					got[g][k] = e
				}
			}(g)
		}
		wg.Wait()
		for k := 0; k < keys; k++ {
			stored, ok := c.Load(k)
			if !ok {
				t.Fatalf("key %d not stored", k)
			}
			for g := range got {
				if got[g][k] != stored {
					t.Fatalf("goroutine %d observed %p for key %d, stored is %p", g, got[g][k], k, stored)
				}
			}
		}
	})
	t.Run("bounded with resets", func(t *testing.T) {
		var stats Stats
		c := Map[int, *entry]{Max: keys / 2, Stats: &stats}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					k := (g + it) % keys
					e, _, err := c.LoadOrBuild(k, func(k int) (*entry, error) { return &entry{k, g}, nil })
					if err != nil || e.key != k {
						t.Errorf("goroutine %d: key %d got %+v, err %v", g, k, e, err)
						return
					}
					if e, ok := c.Load(k); ok && e.key != k {
						t.Errorf("Load(%d) = %+v", k, e)
						return
					}
					if g == 0 && it%64 == 0 {
						c.Reset()
					}
				}
			}(g)
		}
		wg.Wait()
		if hits, misses := stats.Load(); hits+misses != goroutines*iters {
			t.Errorf("stats saw %d calls, want %d", hits+misses, goroutines*iters)
		}
	})
}
