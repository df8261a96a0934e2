package sharing

import (
	"errors"
	"sync"
	"testing"

	"yosompc/internal/field"
	"yosompc/internal/poly"
	"yosompc/internal/telemetry"
)

// domainShapes is the (k, d, n) grid the differential tests sweep:
// standard Shamir, minimal degree (no auxiliary randomness), packed with
// and without redundancy, and committee-sized cases.
var domainShapes = []struct{ k, d, n int }{
	{1, 0, 1},
	{1, 3, 8},
	{3, 2, 4}, // d = k-1: zero auxiliary randomness points
	{3, 5, 8},
	{4, 7, 16},
	{5, 9, 10},
	{8, 15, 33},
}

func assertSharesEqual(t *testing.T, fast, naive []Share, label string) {
	t.Helper()
	if len(fast) != len(naive) {
		t.Fatalf("%s: %d vs %d shares", label, len(fast), len(naive))
	}
	for i := range fast {
		if fast[i] != naive[i] {
			t.Fatalf("%s: share %d: domain=%+v naive=%+v", label, i, fast[i], naive[i])
		}
	}
}

// TestSharePackedMatchesNaive drives the cached domain and the seed
// Lagrange-basis path from identical randomness and demands bit-identical
// shares across the shape grid.
func TestSharePackedMatchesNaive(t *testing.T) {
	for _, s := range domainShapes {
		secrets := field.MustRandomVec(s.k)
		rnd := field.MustRandomVec(s.d + 1 - s.k)
		dom, err := GetDomain(s.k, s.d, s.n)
		if err != nil {
			t.Fatalf("GetDomain(%+v): %v", s, err)
		}
		naive, err := sharePackedNaiveWith(secrets, rnd, s.d, s.n)
		if err != nil {
			t.Fatalf("naive(%+v): %v", s, err)
		}
		assertSharesEqual(t, dom.shareWith(secrets, rnd), naive, "k/d/n shape")

		// Above the randomness seam the two paths cannot be compared share
		// for share; the reference's sharing must still open to the secrets
		// on the engine's reconstruction.
		if naive, err = SharePackedNaive(secrets, s.d, s.n); err != nil {
			t.Fatalf("SharePackedNaive(%+v): %v", s, err)
		}
		got, err := ReconstructPacked(naive, s.d, s.k)
		if err != nil || !field.EqualVec(got, secrets) {
			t.Fatalf("SharePackedNaive(%+v) opens to %v (err %v), want %v", s, got, err, secrets)
		}
	}
}

// TestReconstructPackedMatchesNaive checks the canonical fast path, the
// non-canonical barycentric fallback, and corruption-detection parity
// (identical error text) against ReconstructPackedNaive.
func TestReconstructPackedMatchesNaive(t *testing.T) {
	for _, s := range domainShapes {
		secrets := field.MustRandomVec(s.k)
		shares, err := SharePacked(secrets, s.d, s.n)
		if err != nil {
			t.Fatalf("SharePacked(%+v): %v", s, err)
		}

		// Canonical: full committee, extras as consistency probes.
		fast, err := ReconstructPacked(shares, s.d, s.k)
		if err != nil {
			t.Fatalf("ReconstructPacked(full, %+v): %v", s, err)
		}
		naive, err := ReconstructPackedNaive(shares, s.d, s.k)
		if err != nil {
			t.Fatalf("ReconstructPackedNaive(full, %+v): %v", s, err)
		}
		if !field.EqualVec(fast, naive) || !field.EqualVec(fast, secrets) {
			t.Fatalf("full-set reconstruction mismatch: fast=%v naive=%v want=%v", fast, naive, secrets)
		}

		// Non-canonical: tail subset, indices not 1..d+1.
		tail := shares[s.n-(s.d+1):]
		fast, err = ReconstructPacked(tail, s.d, s.k)
		if err != nil {
			t.Fatalf("ReconstructPacked(tail, %+v): %v", s, err)
		}
		naive, err = ReconstructPackedNaive(tail, s.d, s.k)
		if err != nil {
			t.Fatalf("ReconstructPackedNaive(tail, %+v): %v", s, err)
		}
		if !field.EqualVec(fast, naive) || !field.EqualVec(fast, secrets) {
			t.Fatalf("tail reconstruction mismatch: fast=%v naive=%v want=%v", fast, naive, secrets)
		}

		// Corruption parity: when redundancy exists, both paths must reject
		// a tampered redundant share with the same error.
		if s.n > s.d+1 {
			tampered := make([]Share, s.n)
			copy(tampered, shares)
			tampered[s.n-1].Value = tampered[s.n-1].Value.Add(field.One)
			_, fastErr := ReconstructPacked(tampered, s.d, s.k)
			_, naiveErr := ReconstructPackedNaive(tampered, s.d, s.k)
			if !errors.Is(fastErr, ErrInconsistentShares) || !errors.Is(naiveErr, ErrInconsistentShares) {
				t.Fatalf("tampering missed: fast=%v naive=%v", fastErr, naiveErr)
			}
			if fastErr.Error() != naiveErr.Error() {
				t.Fatalf("error text diverged: fast=%q naive=%q", fastErr, naiveErr)
			}
		}
	}
}

// TestReconstructPackedDuplicateIndexParity: a repeated share index in the
// interpolation prefix must fail closed as ErrDuplicatePoint on both paths.
func TestReconstructPackedDuplicateIndexParity(t *testing.T) {
	shares := []Share{
		{Index: 3, Value: field.New(7)},
		{Index: 1, Value: field.New(9)},
		{Index: 3, Value: field.New(11)},
	}
	_, fastErr := ReconstructPacked(shares, 2, 1)
	_, naiveErr := ReconstructPackedNaive(shares, 2, 1)
	if !errors.Is(fastErr, poly.ErrDuplicatePoint) {
		t.Errorf("fast path: %v, want ErrDuplicatePoint", fastErr)
	}
	if !errors.Is(naiveErr, poly.ErrDuplicatePoint) {
		t.Errorf("naive path: %v, want ErrDuplicatePoint", naiveErr)
	}
}

// TestConstantPackedMatchesNaive pins the cached constant-packing rows
// against direct Lagrange evaluation, including slot-coinciding (index 0),
// negative (uncached) and growth-forcing large indices.
func TestConstantPackedMatchesNaive(t *testing.T) {
	for _, k := range []int{1, 2, 5, 9} {
		c := field.MustRandomVec(k)
		for _, index := range []int{-3, 0, 1, 2, 7, 40, 41, 129} {
			fast, err := ConstantPackedShare(c, index)
			if err != nil {
				t.Fatalf("ConstantPackedShare(k=%d, i=%d): %v", k, index, err)
			}
			naive, err := constantPackedShareNaive(c, index)
			if err != nil {
				t.Fatalf("naive(k=%d, i=%d): %v", k, index, err)
			}
			if fast != naive {
				t.Fatalf("k=%d index=%d: domain=%+v naive=%+v", k, index, fast, naive)
			}
		}
		shares, err := ConstantPacked(c, 17)
		if err != nil {
			t.Fatalf("ConstantPacked(k=%d): %v", k, err)
		}
		for i, s := range shares {
			naive, err := constantPackedShareNaive(c, i+1)
			if err != nil {
				t.Fatal(err)
			}
			if s != naive {
				t.Fatalf("k=%d: ConstantPacked share %d = %+v, naive %+v", k, i, s, naive)
			}
		}
		// Width mismatch must fail closed.
		cd, err := GetConstDomain(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cd.Share(append(field.CloneVec(c), field.One), 1); err == nil {
			t.Fatalf("k=%d: width mismatch accepted", k)
		}
	}
	if _, err := ConstantPacked(nil, 4); err == nil {
		t.Error("empty public vector accepted")
	}
}

// TestPackingLagrangeCoeffsMatchesReference pins the domain's share rows —
// the packing coefficients core reads through ShareRow — against per-row
// LagrangeCoeffs, and the shapes whose packed degree t+k-1 exceeds what n
// parties could reconstruct are refused rather than served.
func TestPackingLagrangeCoeffsMatchesReference(t *testing.T) {
	shapes := []struct {
		k, t, n int
		valid   bool
	}{
		{1, 0, 1, true}, // degenerate
		{2, 3, 8, true},
		{3, 0, 5, true},   // d = k-1
		{2, 5, 4, false},  // degree t+k-1 = 6 > n-1
		{1, 4, 3, false},  // likewise
		{4, 13, 9, false}, // likewise
		{0, 1, 4, false},  // k = 0
		{1, -1, 4, false}, // t = -1
	}
	for _, s := range shapes {
		dom, err := GetDomain(s.k, s.t+s.k-1, s.n)
		if !s.valid {
			if err == nil {
				t.Errorf("GetDomain accepted shape %+v", s)
			}
			continue
		}
		if err != nil {
			t.Fatalf("GetDomain(%+v): %v", s, err)
		}
		xs := SlotPoints(s.k)
		for i := 1; i <= s.t; i++ {
			xs = append(xs, field.New(uint64(i)))
		}
		for i := 1; i <= s.n; i++ {
			want, err := poly.LagrangeCoeffs(xs, ShareIndexPoint(i))
			if err != nil {
				t.Fatal(err)
			}
			if !field.EqualVec(dom.ShareRow(i), want) {
				t.Fatalf("shape %+v row %d differs from LagrangeCoeffs", s, i)
			}
		}
	}
}

// resetDomainCaches drops every cached domain and zeroes the counters,
// so cache-statistics tests start deterministic.
func resetDomainCaches() {
	domainCache.Reset()
	reconCache.Reset()
	constCache.Reset()
	domainStats.Reset()
}

// TestDomainCacheStatsAndInstrument checks miss-then-hit accounting and
// the mirroring of the counters into a telemetry registry.
func TestDomainCacheStatsAndInstrument(t *testing.T) {
	resetDomainCaches()
	reg := telemetry.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	if _, err := GetDomain(2, 3, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := GetDomain(2, 3, 8); err != nil {
		t.Fatal(err)
	}
	getReconDomain(3, 2)
	getReconDomain(3, 2)
	if _, err := GetConstDomain(2); err != nil {
		t.Fatal(err)
	}
	if _, err := GetConstDomain(2); err != nil {
		t.Fatal(err)
	}

	hits, misses := domainStats.Load()
	if hits != 3 || misses != 3 {
		t.Fatalf("stats = (%d hits, %d misses), want (3, 3)", hits, misses)
	}
	if v := reg.Counter("sharing.domain_cache_hits").Value(); v != 3 {
		t.Errorf("telemetry hits = %d, want 3", v)
	}
	if v := reg.Counter("sharing.domain_cache_misses").Value(); v != 3 {
		t.Errorf("telemetry misses = %d, want 3", v)
	}
}

// TestDomainCacheHitPathDoesNotAllocate pins the generic cache layer's
// cost on the μ-reconstruction loop: a warm GetDomain / getReconDomain is
// a lookup, with no closure or key boxed per call.
func TestDomainCacheHitPathDoesNotAllocate(t *testing.T) {
	if _, err := GetDomain(4, 7, 16); err != nil {
		t.Fatal(err)
	}
	getReconDomain(7, 4)
	if a := testing.AllocsPerRun(100, func() { GetDomain(4, 7, 16) }); a != 0 {
		t.Errorf("warm GetDomain allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { getReconDomain(7, 4) }); a != 0 {
		t.Errorf("warm getReconDomain allocates %v times per call, want 0", a)
	}
}

// TestDomainCacheConcurrent hammers the package's use of its caches —
// sharing and reconstructing through full and reconstruction domains,
// constant rows (the growth path cowcache does not own) — from many
// goroutines, with cache resets interleaved, under the race detector.
// The maps themselves are hammered in internal/cowcache.
func TestDomainCacheConcurrent(t *testing.T) {
	resetDomainCaches()
	secretsByShape := make([][]field.Element, len(domainShapes))
	for i, s := range domainShapes {
		secretsByShape[i] = field.MustRandomVec(s.k)
	}
	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				s := domainShapes[(g+it)%len(domainShapes)]
				secrets := secretsByShape[(g+it)%len(domainShapes)]
				shares, err := SharePacked(secrets, s.d, s.n)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := ReconstructPacked(shares, s.d, s.k)
				if err != nil {
					t.Error(err)
					return
				}
				if !field.EqualVec(got, secrets) {
					t.Errorf("shape %+v: round trip mismatch", s)
					return
				}
				// Constant-row growth races: ever-larger indices.
				if _, err := ConstantPackedShare(secrets, 1+g*iters+it); err != nil {
					t.Error(err)
					return
				}
				if g == 0 && it%16 == 0 {
					resetDomainCaches()
				}
			}
		}(g)
	}
	wg.Wait()
}
