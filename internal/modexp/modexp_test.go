package modexp

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"yosompc/internal/telemetry"
)

// resetCaches drops every cached table, sighting and ladder and zeroes
// the stats: the caches are process-wide, so tests that count hits and
// misses start from empty.
func resetCaches() {
	tableCache.Reset()
	seenCache.Reset()
	ladders.Reset()
	monts.Reset()
	tableStats.Reset()
}

// cachedTable returns the table cached for (base, m), or nil.
func cachedTable(base, m *big.Int) *FixedBase {
	if slot, ok := tableCache.Load(keyOf(base, m)); ok {
		return slot.t.Load()
	}
	return nil
}

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func randBig(r *rand.Rand, bits int) *big.Int {
	if bits <= 0 {
		return new(big.Int)
	}
	b := make([]byte, (bits+7)/8)
	r.Read(b)
	v := new(big.Int).SetBytes(b)
	return v.Rand(r, new(big.Int).Lsh(bigOne, uint(bits)))
}

// oddModulus returns a random odd modulus of the given size; odd keeps
// gcd(2,m)=1 so small even bases stay invertible often enough for the
// negative-exponent cases.
func oddModulus(r *rand.Rand, bits int) *big.Int {
	m := randBig(r, bits)
	m.SetBit(m, 0, 1)
	m.SetBit(m, bits-1, 1)
	return m
}

func TestExpSignedMatchesNaive(t *testing.T) {
	r := testRNG(1)
	for i := 0; i < 200; i++ {
		m := oddModulus(r, 64+r.Intn(512))
		base := randBig(r, m.BitLen())
		exp := randBig(r, r.Intn(700))
		if r.Intn(2) == 0 {
			exp.Neg(exp)
		}
		want, err := ExpSigned(base, exp, m)
		gotNaive := func() (*big.Int, bool) {
			b, e := base, exp
			if exp.Sign() < 0 {
				b = new(big.Int).ModInverse(base, m)
				if b == nil {
					return nil, false
				}
				e = new(big.Int).Neg(exp)
			}
			return new(big.Int).Exp(b, e, m), true
		}
		naive, ok := gotNaive()
		if !ok {
			if err == nil {
				t.Fatalf("case %d: naive failed to invert but engine returned %v", i, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("case %d: ExpSigned: %v", i, err)
		}
		if want.Cmp(naive) != 0 {
			t.Fatalf("case %d: ExpSigned=%v naive=%v", i, want, naive)
		}
	}
}

// testModulus draws a modulus for case i of a differential test: every
// fourth is even (no Montgomery context: the plain path), every fourth
// fits one word, the rest are odd and multi-word.
func testModulus(r *rand.Rand, i int) *big.Int {
	switch i % 4 {
	case 0:
		m := oddModulus(r, 96+r.Intn(512))
		return m.SetBit(m, 0, 0)
	case 1:
		return oddModulus(r, 2+r.Intn(63))
	}
	return oddModulus(r, 96+r.Intn(512))
}

// randExp returns a random exponent of exactly bits bits.
func randExp(r *rand.Rand, bits int) *big.Int {
	e := randBig(r, bits)
	if bits > 0 {
		e.SetBit(e, bits-1, 1)
	}
	return e
}

// randUnit returns a random residue invertible mod m.
func randUnit(r *rand.Rand, m *big.Int) *big.Int {
	for {
		u := randBig(r, m.BitLen()-1)
		if new(big.Int).GCD(nil, nil, u, m).Cmp(bigOne) == 0 {
			return u
		}
	}
}

func TestFixedBaseMatchesExp(t *testing.T) {
	r := testRNG(2)
	for i := 0; i < 80; i++ {
		m := testModulus(r, i)
		base := randBig(r, m.BitLen()+8) // unreduced
		maxBits := 1 + r.Intn(900)
		if i%3 == 0 {
			// Rows of 4q + 2 bits for q ≥ 2 are cut into blocks of q + 1:
			// the last column block of every row is short.
			maxBits = combRows * (4*(2+r.Intn(40)) + 2)
		}
		tab := NewFixedBase(base, m, maxBits)
		// Exponents of length 0, 1, exactly the table's, one past it (the
		// plain fallback), and random ones on both sides of the bound.
		for j, bits := range []int{0, 1, maxBits, maxBits + 1, r.Intn(maxBits + 1), r.Intn(maxBits + 128)} {
			exp := randExp(r, bits)
			got := tab.Exp(exp)
			want := new(big.Int).Exp(base, exp, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("case %d/%d: table Exp=%v naive=%v (bits=%d maxBits=%d m=%v)", i, j, got, want, bits, maxBits, m)
			}
			exp.Neg(exp)
			gotS, err := tab.ExpSigned(exp)
			wantS, errN := ExpSigned(base, exp, m)
			if (err == nil) != (errN == nil) {
				t.Fatalf("case %d/%d: signed err mismatch: table=%v naive=%v", i, j, err, errN)
			}
			if err == nil && gotS.Cmp(wantS) != 0 {
				t.Fatalf("case %d/%d: table ExpSigned=%v naive=%v", i, j, gotS, wantS)
			}
		}
	}
}

func TestFixedBaseEdgeCases(t *testing.T) {
	m := big.NewInt(1000003)
	tab := NewFixedBase(big.NewInt(7), m, 256)
	if got := tab.Exp(new(big.Int)); got.Cmp(bigOne) != 0 {
		t.Fatalf("b^0 = %v, want 1", got)
	}
	if got := tab.Exp(bigOne); got.Cmp(big.NewInt(7)) != 0 {
		t.Fatalf("b^1 = %v, want 7", got)
	}
	// Base 0 and base ≡ 0 mod m.
	zt := NewFixedBase(new(big.Int), m, 64)
	if got := zt.Exp(big.NewInt(5)); got.Sign() != 0 {
		t.Fatalf("0^5 = %v, want 0", got)
	}
	if got := zt.Exp(new(big.Int)); got.Cmp(bigOne) != 0 {
		t.Fatalf("0^0 = %v, want 1 (big.Int.Exp convention)", got)
	}
}

// TestFixedBaseExpCountsHits: a hit is counted where the table serves an
// exponentiation — by Exp itself, whoever holds the table — and only
// there: the plain fallback for an over-long exponent counts nothing.
func TestFixedBaseExpCountsHits(t *testing.T) {
	resetCaches()
	defer resetCaches()
	tab := NewFixedBase(big.NewInt(7), big.NewInt(1000003), 64)
	tab.Exp(big.NewInt(12345))
	if _, err := tab.ExpSigned(big.NewInt(-12345)); err != nil {
		t.Fatal(err)
	}
	tab.Exp(new(big.Int).Lsh(bigOne, 64))
	if h, ms := tableStats.Load(); h != 2 || ms != 0 {
		t.Fatalf("hits=%d misses=%d, want 2 and 0", h, ms)
	}
}

func TestExpCachedSignedPromotion(t *testing.T) {
	resetCaches()
	r := testRNG(3)
	m := oddModulus(r, 512)
	base := randBig(r, 512)
	exp := randBig(r, 400)

	want, _ := ExpSigned(base, exp, m)
	// First use: plain path, sighting recorded, no table yet.
	got, err := ExpCachedSigned(base, exp, m)
	if err != nil || got.Cmp(want) != 0 {
		t.Fatalf("first use: got %v err %v", got, err)
	}
	if h, _ := tableStats.Load(); h != 0 {
		t.Fatalf("hits after first use = %d, want 0", h)
	}
	if cachedTable(base, m) != nil {
		t.Fatal("table built on first sighting; want promotion on second use")
	}
	// Second use: table built and used.
	got, err = ExpCachedSigned(base, exp, m)
	if err != nil || got.Cmp(want) != 0 {
		t.Fatalf("second use: got %v err %v", got, err)
	}
	if tab := cachedTable(base, m); tab == nil || tab.Bits() < exp.BitLen() {
		t.Fatal("no table after second use")
	}
	// Third use: cache hit, still bit-identical.
	got, err = ExpCachedSigned(base, exp, m)
	if err != nil || got.Cmp(want) != 0 {
		t.Fatalf("third use: got %v err %v", got, err)
	}
	if h, _ := tableStats.Load(); h != 1 {
		t.Fatalf("hits after third use = %d, want 1", h)
	}
	// Different exponents over the cached base, including negative.
	for i := 0; i < 20; i++ {
		e := randBig(r, r.Intn(600))
		if i%2 == 1 {
			e.Neg(e)
		}
		g, err1 := ExpCachedSigned(base, e, m)
		w, err2 := ExpSigned(base, e, m)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("exp %d: err mismatch %v vs %v", i, err1, err2)
		}
		if err1 == nil && g.Cmp(w) != 0 {
			t.Fatalf("exp %d: cached=%v naive=%v", i, g, w)
		}
	}
	resetCaches()
}

// TestExpCachedSignedNegativeBase: the caches key on the residue, not on
// the absolute value. Once g is promoted, −g must not be served from g's
// table (wrong for odd exponents), while the unreduced g + N is the same
// residue and must be.
func TestExpCachedSignedNegativeBase(t *testing.T) {
	resetCaches()
	defer resetCaches()
	r := testRNG(9)
	n := oddModulus(r, 512)
	g := randBig(r, 500)
	e := randBig(r, 300)
	e.SetBit(e, 0, 1) // odd, so (−g)^e = −(g^e)
	e.SetBit(e, 299, 1)
	for i := 0; i < 3; i++ {
		if _, err := ExpCachedSigned(g, e, n); err != nil {
			t.Fatal(err)
		}
	}
	if cachedTable(g, n) == nil {
		t.Fatal("g not promoted after three calls")
	}

	negG := new(big.Int).Neg(g)
	want, err := ExpSigned(negG, e, n)
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 3; call++ { // sighting, promotion, table hit
		got, err := ExpCachedSigned(negG, e, n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("call %d: ExpCachedSigned(−g) = %v, ExpSigned(−g) = %v", call, got, want)
		}
	}

	hits, _ := tableStats.Load()
	gPlusN := new(big.Int).Add(g, n)
	want, _ = ExpSigned(g, e, n)
	got, err := ExpCachedSigned(gPlusN, e, n)
	if err != nil || got.Cmp(want) != 0 {
		t.Fatalf("ExpCachedSigned(g+N) = %v (err %v), want %v", got, err, want)
	}
	if after, _ := tableStats.Load(); after != hits+1 {
		t.Fatalf("g+N missed g's table: hits %d -> %d", hits, after)
	}

	Ladder(g, n)
	cube, err := Ladder(negG, n).Pow(3)
	if err != nil {
		t.Fatal(err)
	}
	if want := new(big.Int).Exp(negG, big.NewInt(3), n); cube.Cmp(want) != 0 {
		t.Fatalf("Ladder(−g).Pow(3) = %v, want %v", cube, want)
	}
	if Ladder(gPlusN, n) != Ladder(g, n) {
		t.Fatal("Ladder(g+N) is not Ladder(g)")
	}
}

func TestExpCachedSignedSmallExponentBypass(t *testing.T) {
	resetCaches()
	m := big.NewInt(1000003)
	for i := 0; i < 5; i++ {
		got, err := ExpCachedSigned(big.NewInt(7), big.NewInt(123), m)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Exp(big.NewInt(7), big.NewInt(123), m)
		if got.Cmp(want) != 0 {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if h, ms := tableStats.Load(); h != 0 || ms != 0 {
		t.Fatalf("small exponents touched the cache: hits=%d misses=%d", h, ms)
	}
	resetCaches()
}

func TestMultiExpMatchesNaiveProduct(t *testing.T) {
	r := testRNG(4)
	for i := 0; i < 160; i++ {
		m := testModulus(r, i)
		k := 1 + i%8
		bits := 1 + r.Intn(500)
		bases := make([]*big.Int, k)
		exps := make([]*big.Int, k)
		for j := range bases {
			bases[j] = randBig(r, m.BitLen()+8)
			if r.Intn(16) == 0 {
				bases[j].SetInt64(0) // invertible under no modulus
			}
			exps[j] = randExp(r, []int{0, 1, bits, bits + 1, r.Intn(bits + 1)}[r.Intn(5)])
			if r.Intn(2) == 0 {
				exps[j].Neg(exps[j])
			}
		}
		want := new(big.Int).Mod(bigOne, m)
		ok := true
		for j := range bases {
			term, err := ExpSigned(bases[j], exps[j], m)
			if err != nil {
				ok = false
				break
			}
			want.Mod(want.Mul(want, term), m)
		}
		got, err := MultiExp(m, bases, exps)
		if !ok {
			if err == nil {
				t.Fatalf("case %d: naive not invertible but MultiExp returned %v", i, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("case %d: MultiExp: %v", i, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("case %d: MultiExp=%v naive=%v (k=%d m=%v)", i, got, want, k, m)
		}
	}
	// Empty input is the multiplicative identity.
	m := big.NewInt(97)
	got, err := MultiExp(m, nil, nil)
	if err != nil || got.Cmp(bigOne) != 0 {
		t.Fatalf("empty MultiExp = %v, %v; want 1", got, err)
	}
	// All-zero exponents too.
	got, err = MultiExp(m, []*big.Int{big.NewInt(5)}, []*big.Int{new(big.Int)})
	if err != nil || got.Cmp(bigOne) != 0 {
		t.Fatalf("zero-exponent MultiExp = %v, %v; want 1", got, err)
	}
}

func TestExpManySignedMatchesNaive(t *testing.T) {
	r := testRNG(5)
	for _, n := range []int{0, 1, 3, 4, 16} {
		m := oddModulus(r, 512)
		base := randBig(r, 512)
		exps := make([]*big.Int, n)
		for i := range exps {
			exps[i] = randBig(r, 300+r.Intn(200))
			if i%3 == 0 {
				exps[i].Neg(exps[i])
			}
		}
		// A random base may share a factor with m; the batch must then
		// fail exactly when the per-exponent naive path fails.
		naiveOK := true
		wants := make([]*big.Int, n)
		for i, e := range exps {
			w, err := ExpSigned(base, e, m)
			if err != nil {
				naiveOK = false
				break
			}
			wants[i] = w
		}
		got, err := ExpManySigned(base, m, exps)
		if !naiveOK {
			if err == nil {
				t.Fatalf("n=%d: naive not invertible but batch succeeded", n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range exps {
			if got[i].Cmp(wants[i]) != 0 {
				t.Fatalf("n=%d i=%d: batch=%v naive=%v", n, i, got[i], wants[i])
			}
		}
	}
}

func TestPowerLadderMatchesExp(t *testing.T) {
	resetCaches()
	r := testRNG(6)
	m := oddModulus(r, 256)
	base := randBig(r, 256)
	l := Ladder(base, m)
	// Non-monotone access pattern: the ladder must extend and backfill.
	for _, k := range []int{5, 0, 17, 3, 64, 63, 65, 1} {
		got, err := l.Pow(k)
		if err != nil {
			t.Fatalf("Pow(%d): %v", k, err)
		}
		want := new(big.Int).Exp(base, big.NewInt(int64(k)), m)
		if got.Cmp(want) != 0 {
			t.Fatalf("Pow(%d)=%v naive=%v", k, got, want)
		}
	}
	// Same (base, modulus) yields the same ladder instance.
	if Ladder(base, m) != l {
		t.Fatal("Ladder not cached per (base, modulus)")
	}
	resetCaches()
}

func TestInstrumentMirrorsCounters(t *testing.T) {
	resetCaches()
	reg := telemetry.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	r := testRNG(7)
	m := oddModulus(r, 256)
	base := randBig(r, 256)
	exp := randBig(r, 200)
	for i := 0; i < 3; i++ {
		if _, err := ExpCachedSigned(base, exp, m); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["modexp.table_cache_hits"] != 1 {
		t.Fatalf("telemetry hits = %d, want 1", snap.Counters["modexp.table_cache_hits"])
	}
	if snap.Counters["modexp.table_cache_misses"] != 2 {
		t.Fatalf("telemetry misses = %d, want 2", snap.Counters["modexp.table_cache_misses"])
	}
	resetCaches()
}

// TestCacheHammer drives what modexp adds on top of its cowcache maps
// (hammered in internal/cowcache) from many goroutines at once —
// sighting-then-promotion, table replacement inside a slot, ladder
// growth; run under -race it is the engine's concurrency witness.
func TestCacheHammer(t *testing.T) {
	resetCaches()
	r := testRNG(8)
	const nBases = 4
	m := oddModulus(r, 256)
	bases := make([]*big.Int, nBases)
	exps := make([]*big.Int, nBases)
	wants := make([]*big.Int, nBases)
	for i := range bases {
		bases[i] = randBig(r, 256)
		exps[i] = randBig(r, 200)
		w, err := ExpSigned(bases[i], exps[i], m)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				j := (g + i) % nBases
				got, err := ExpCachedSigned(bases[j], exps[j], m)
				if err != nil || got.Cmp(wants[j]) != 0 {
					t.Errorf("goroutine %d iter %d: got %v err %v", g, i, got, err)
					return
				}
				p, err := Ladder(bases[j], m).Pow(i % 9)
				if err != nil {
					t.Errorf("ladder: %v", err)
					return
				}
				want := new(big.Int).Exp(bases[j], big.NewInt(int64(i%9)), m)
				if p.Cmp(want) != 0 {
					t.Errorf("goroutine %d iter %d: ladder %v want %v", g, i, p, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if h, ms := tableStats.Load(); h == 0 || ms == 0 {
		t.Fatalf("hammer saw hits=%d misses=%d; want both non-zero", h, ms)
	}
	resetCaches()
}

// FuzzEngineVsNaive pins every engine path — cached signed exp,
// fixed-base tables, and multi-exp over two to six bases — bit-for-bit
// against plain big.Int.Exp references.
func FuzzEngineVsNaive(f *testing.F) {
	f.Add([]byte{7}, []byte{3}, []byte{5}, []byte{11}, []byte{97}, false, false, false)
	f.Add([]byte{2}, []byte{0xff, 0x01}, []byte{9}, []byte{0x80}, []byte{0xc1}, true, false, false)
	f.Add([]byte{0}, []byte{0}, []byte{1}, []byte{1}, []byte{3}, false, true, false)
	// Negative and unreduced bases under exponents long enough (≥ 64 bits,
	// odd) to go through table promotion.
	long := []byte{0x81, 2, 3, 4, 5, 6, 7, 8, 9}
	f.Add([]byte{7}, long, []byte{5}, []byte{11}, []byte{0x01, 0x01}, false, false, true)
	f.Add([]byte{0x03, 0x08}, long, []byte{0x02, 0x09}, long, []byte{0x01, 0x01}, false, true, false)
	f.Add([]byte{0x03, 0x08}, long, []byte{0x02, 0x09}, long, []byte{0x01, 0x01}, true, false, true)
	// An even modulus (no Montgomery context: every path is plain).
	f.Add([]byte{7}, long, []byte{5}, long, []byte{0x01, 0x00}, true, false, false)
	// A 72-bit exponent, a layout boundary: a table of 72 bits has rows
	// of exactly 8 bits in four blocks of 2, one of 73 bits rows of 9 in
	// three blocks of 3 with a top row of one bit; over a two-word odd
	// modulus.
	boundary := append([]byte{0x80}, make([]byte, 8)...)
	boundary[8] = 0x2b
	mod128 := append([]byte{0xc5}, make([]byte, 15)...)
	mod128[15] = 0x61
	f.Add([]byte{0x03, 0x08}, boundary, []byte{0x02, 0x09}, boundary, mod128, false, true, false)
	f.Fuzz(func(t *testing.T, baseB, expB, base2B, exp2B, modB []byte, neg1, neg2, negBase bool) {
		mod := new(big.Int).SetBytes(modB)
		if mod.BitLen() < 2 || mod.BitLen() > 1024 {
			t.Skip()
		}
		base := new(big.Int).SetBytes(baseB)
		exp := new(big.Int).SetBytes(expB)
		base2 := new(big.Int).SetBytes(base2B)
		exp2 := new(big.Int).SetBytes(exp2B)
		if exp.BitLen() > 4096 || exp2.BitLen() > 4096 {
			t.Skip()
		}
		if negBase {
			base.Neg(base)
			base2.Neg(base2)
		}
		if neg1 {
			exp.Neg(exp)
		}
		if neg2 {
			exp2.Neg(exp2)
		}

		naive := func(b, e *big.Int) (*big.Int, bool) {
			bb := b
			if e.Sign() < 0 {
				bb = new(big.Int).ModInverse(b, mod)
				if bb == nil {
					return nil, false
				}
				e = new(big.Int).Neg(e)
			}
			return new(big.Int).Exp(bb, e, mod), true
		}

		// Path 1: cached signed exp, called twice so the second call
		// exercises table promotion when the exponent is large enough.
		resetCaches()
		want, ok := naive(base, exp)
		for call := 0; call < 3; call++ {
			got, err := ExpCachedSigned(base, exp, mod)
			if !ok {
				if err == nil {
					t.Fatalf("call %d: naive not invertible, engine returned %v", call, got)
				}
				break
			}
			if err != nil {
				t.Fatalf("call %d: %v", call, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("call %d: engine=%v naive=%v", call, got, want)
			}
		}

		// Path 2: explicit comb tables covering one bit more than the
		// exponent, exactly its length, and one bit less (the plain
		// fallback), under either sign.
		for _, maxBits := range []int{exp.BitLen() + 1, exp.BitLen(), exp.BitLen() - 1} {
			tab := NewFixedBase(base, mod, maxBits)
			got, err := tab.ExpSigned(exp)
			if (err == nil) != ok {
				t.Fatalf("fixed-base maxBits=%d: err=%v, naive invertible=%v", maxBits, err, ok)
			}
			if ok && got.Cmp(want) != 0 {
				t.Fatalf("fixed-base maxBits=%d: ExpSigned=%v want %v", maxBits, got, want)
			}
			if exp.Sign() >= 0 {
				if got := tab.Exp(exp); got.Cmp(want) != 0 {
					t.Fatalf("fixed-base maxBits=%d: Exp=%v want %v", maxBits, got, want)
				}
			}
		}

		// Path 3: a k-term multi-exp, k = 2…6, vs the naive product: the
		// two inputs plus k − 2 terms mixed from them, b + j·b2 raised to
		// e − j·e2, so signs mix too.
		k := 2 + int(modB[0])%5
		bases, exps := []*big.Int{base, base2}, []*big.Int{exp, exp2}
		for j := int64(2); j < int64(k); j++ {
			bases = append(bases, new(big.Int).Add(base, new(big.Int).Mul(big.NewInt(j), base2)))
			exps = append(exps, new(big.Int).Sub(exp, new(big.Int).Mul(big.NewInt(j), exp2)))
		}
		want = new(big.Int).Mod(bigOne, mod)
		invertible := true
		for j := range bases {
			w, ok := naive(bases[j], exps[j])
			if !ok {
				invertible = false
				break
			}
			want.Mod(want.Mul(want, w), mod)
		}
		got, err := MultiExp(mod, bases, exps)
		if !invertible {
			if err == nil {
				t.Fatalf("multi-exp k=%d: naive not invertible, engine returned %v", k, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("multi-exp k=%d: %v", k, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("multi-exp k=%d: %v naive=%v", k, got, want)
		}
	})
}

// BenchmarkFixedBaseExp times a comb exponentiation against big.Int.Exp
// at the encryption randomizer's shape: an exponent a quarter of the
// modulus long (ρ of |N|/2 bits over N²).
func BenchmarkFixedBaseExp(b *testing.B) {
	for _, bits := range []int{1024, 4096} {
		r := testRNG(11)
		m := oddModulus(r, bits)
		base := randBig(r, bits)
		exp := randExp(r, bits/4)
		tab := NewFixedBase(base, m, bits/4)
		b.Run(fmt.Sprintf("%d/table", bits), func(b *testing.B) {
			for range b.N {
				tab.Exp(exp)
			}
		})
		b.Run(fmt.Sprintf("%d/plain", bits), func(b *testing.B) {
			for range b.N {
				new(big.Int).Exp(base, exp, m)
			}
		})
	}
}

// BenchmarkMultiExp times one Straus product against the naive product
// of ExpSigned terms at TEval's shape — eight ciphertexts under
// field-sized coefficients — and at Combine's, two terms of full-length
// signed exponents.
func BenchmarkMultiExp(b *testing.B) {
	for _, bits := range []int{1024, 4096} {
		for _, shape := range []struct {
			name    string
			k, ebit int
		}{{"k8x64", 8, 64}, {"k2xfull", 2, bits / 2}} {
			r := testRNG(12)
			m := oddModulus(r, bits)
			bases, exps := make([]*big.Int, shape.k), make([]*big.Int, shape.k)
			for i := range bases {
				bases[i], exps[i] = randUnit(r, m), randExp(r, shape.ebit)
			}
			exps[0].Neg(exps[0])
			b.Run(fmt.Sprintf("%d/%s/straus", bits, shape.name), func(b *testing.B) {
				for range b.N {
					if _, err := MultiExp(m, bases, exps); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%d/%s/naive", bits, shape.name), func(b *testing.B) {
				for range b.N {
					acc := big.NewInt(1)
					for i := range bases {
						v, err := ExpSigned(bases[i], exps[i], m)
						if err != nil {
							b.Fatal(err)
						}
						acc.Mod(acc.Mul(acc, v), m)
					}
				}
			})
		}
	}
}
