package modexp

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"yosompc/internal/telemetry"
)

// resetCaches drops every cached Montgomery context and zeroes the stats:
// both are process-wide, so tests that count hits start from empty.
func resetCaches() {
	monts.Reset()
	tableStats.Reset()
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
			// A negative exponent takes the plain path: nil where the base
			// has no inverse, exactly when ExpSigned fails.
			exp.Neg(exp)
			gotS := tab.Exp(exp)
			wantS, err := ExpSigned(base, exp, m)
			if (gotS == nil) != (err != nil) || err == nil && gotS.Cmp(wantS) != 0 {
				t.Fatalf("case %d/%d: table Exp=%v ExpSigned=%v (err %v)", i, j, gotS, wantS, err)
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

// TestFixedBaseExpCountsHits: a hit is counted where an owned table serves
// an exponentiation — by Exp itself, whoever holds the table — and only
// there: Exp's plain fallbacks (a negative or over-long exponent),
// ExpSigned and MultiExp count nothing, and nothing counts a miss.
func TestFixedBaseExpCountsHits(t *testing.T) {
	resetCaches()
	defer resetCaches()
	m := big.NewInt(1000003)
	tab := NewFixedBase(big.NewInt(7), m, 64)
	tab.Exp(big.NewInt(12345))
	tab.Exp(big.NewInt(-12345))
	tab.Exp(new(big.Int).Lsh(bigOne, 64))
	if _, err := ExpSigned(big.NewInt(7), new(big.Int).Lsh(bigOne, 70), m); err != nil {
		t.Fatal(err)
	}
	if _, err := MultiExp(m, []*big.Int{big.NewInt(7)}, []*big.Int{big.NewInt(12345)}); err != nil {
		t.Fatal(err)
	}
	if h, ms := tableStats.Load(); h != 1 || ms != 0 {
		t.Fatalf("hits=%d misses=%d, want 1 and 0", h, ms)
	}
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

func TestInstrumentMirrorsCounters(t *testing.T) {
	resetCaches()
	defer resetCaches()
	reg := telemetry.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	r := testRNG(7)
	m := oddModulus(r, 256)
	tab := NewFixedBase(randBig(r, 256), m, 200)
	for i := 0; i < 3; i++ {
		tab.Exp(randBig(r, 200))
	}
	snap := reg.Snapshot()
	if snap.Counters["modexp.table_cache_hits"] != 3 {
		t.Fatalf("telemetry hits = %d, want 3", snap.Counters["modexp.table_cache_hits"])
	}
	if snap.Counters["modexp.table_cache_misses"] != 0 {
		t.Fatalf("telemetry misses = %d, want 0", snap.Counters["modexp.table_cache_misses"])
	}
}

// TestCacheHammer drives what modexp adds on top of its cowcache map
// (hammered in internal/cowcache) from many goroutines at once: 16 of
// them multi-exponentiate over moduli none has seen yet, so each looks up
// and builds Montgomery contexts the others are building too; run under
// -race it is the engine's concurrency witness.
func TestCacheHammer(t *testing.T) {
	resetCaches()
	defer resetCaches()
	r := testRNG(8)
	moduli := make([]*big.Int, 4)
	for i := range moduli {
		moduli[i] = oddModulus(r, 256)
	}
	bases := []*big.Int{randBig(r, 256), randBig(r, 256)}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				m := moduli[(g+i)%len(moduli)]
				exps := []*big.Int{big.NewInt(int64(g*37 + i*11)), big.NewInt(int64(i + 1))}
				got, err := MultiExp(m, bases, exps)
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				want := new(big.Int).Exp(bases[0], exps[0], m)
				want.Mod(want.Mul(want, new(big.Int).Exp(bases[1], exps[1], m)), m)
				if got.Cmp(want) != 0 {
					t.Errorf("goroutine %d iter %d: MultiExp = %v, want %v", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzEngineVsNaive pins every engine path — fixed-base tables and
// multi-exp over two to six bases — bit-for-bit against plain
// big.Int.Exp references.
func FuzzEngineVsNaive(f *testing.F) {
	f.Add([]byte{7}, []byte{3}, []byte{5}, []byte{11}, []byte{97}, false, false, false)
	f.Add([]byte{2}, []byte{0xff, 0x01}, []byte{9}, []byte{0x80}, []byte{0xc1}, true, false, false)
	f.Add([]byte{0}, []byte{0}, []byte{1}, []byte{1}, []byte{3}, false, true, false)
	// Negative and unreduced bases under odd exponents at comb layout
	// boundaries. 36 bits: rows of exactly 4 bits, one-bit blocks. 90
	// bits: rows of 10 in blocks of 3, so each row's last block is one
	// bit. 145 bits: rows of 17 in blocks of 5 (the last of 2), the top
	// row holding only 9 bits, and through the −1 table 144: rows of 16
	// in four full blocks of 4.
	bits36 := []byte{0x0f, 0x12, 0x34, 0x56, 0x79}
	bits90 := append([]byte{0x03}, make([]byte, 11)...)
	bits90[11] = 0x35
	bits145 := append([]byte{0x01}, make([]byte, 18)...)
	bits145[9], bits145[18] = 0xa7, 0x4b
	f.Add([]byte{7}, bits36, []byte{5}, []byte{11}, []byte{0x01, 0x01}, false, false, true)
	f.Add([]byte{0x03, 0x08}, bits90, []byte{0x02, 0x09}, bits36, []byte{0x01, 0x01}, false, true, false)
	f.Add([]byte{0x03, 0x08}, bits145, []byte{0x02, 0x09}, bits90, []byte{0x01, 0x01}, true, false, true)
	// An even modulus (no Montgomery context: every path is plain).
	long := []byte{0x81, 2, 3, 4, 5, 6, 7, 8, 9}
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

		// Path 1: comb tables covering one bit more than the exponent,
		// exactly its length, and one bit less (the plain fallback), under
		// either sign: a negative exponent takes the plain path, nil where
		// the base has no inverse.
		want, ok := naive(base, exp)
		for _, maxBits := range []int{exp.BitLen() + 1, exp.BitLen(), exp.BitLen() - 1} {
			got := NewFixedBase(base, mod, maxBits).Exp(exp)
			if (got != nil) != ok || ok && got.Cmp(want) != 0 {
				t.Fatalf("fixed-base maxBits=%d: Exp=%v want %v (invertible %v)", maxBits, got, want, ok)
			}
		}

		// Path 2: a k-term multi-exp, k = 2…6, vs the naive product: the
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
