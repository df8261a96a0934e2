package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"

	"yosompc/internal/modexp"
)

// The engine-vs-naive differential suite: every CRT/closed-form/batched
// path pinned bit-for-bit against its retained naive reference.

// engineTestKeys are the 512-bit keys the differential tests sweep.
func engineTestKeys() []*PrivateKey {
	return []*PrivateKey{FixedTestKey(0), FixedTestKey(1), FixedTestKey(2)}
}

func TestExpSignedCRTMatchesNaive(t *testing.T) {
	for ki, sk := range engineTestKeys() {
		r := mrand.New(mrand.NewSource(int64(ki + 1)))
		for i := 0; i < 40; i++ {
			base := new(big.Int).Rand(r, sk.N2)
			// Exponents both below and far above the group order, the
			// threshold-partial regime where reduction matters most.
			exp := new(big.Int).Rand(r, new(big.Int).Lsh(sk.N2, uint(r.Intn(3))*512))
			if i%3 == 1 {
				exp.Neg(exp)
			}
			want, errN := modexp.ExpSigned(base, exp, sk.N2)
			got, errE := sk.ExpSignedCRT(base, exp)
			if (errN == nil) != (errE == nil) {
				t.Fatalf("key %d case %d: err naive=%v engine=%v", ki, i, errN, errE)
			}
			if errN == nil && got.Cmp(want) != 0 {
				t.Fatalf("key %d case %d: engine=%v naive=%v", ki, i, got, want)
			}
		}
	}
}

func TestExpSignedCRTNonUnitBase(t *testing.T) {
	sk := FixedTestKey(0)
	// base = P·x shares a factor with N: the engine must fall back and
	// agree with the naive path, including the error on negative
	// exponents.
	base := new(big.Int).Mul(sk.P, big.NewInt(7))
	exp := big.NewInt(12345)
	want, err := modexp.ExpSigned(base, exp, sk.N2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.ExpSignedCRT(base, exp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("non-unit base: engine=%v naive=%v", got, want)
	}
	if _, err := sk.ExpSignedCRT(base, new(big.Int).Neg(exp)); err == nil {
		t.Fatal("negative exponent on non-unit base: want not-invertible error")
	}
}

// TestDJDecryptCRTMatchesNaive pins Decrypt's CRT path to the naive
// reference on seeded random plaintexts across keys (the fixed edge
// plaintexts are TestDecryptCRTMatchesDecrypt's).
func TestDJDecryptCRTMatchesNaive(t *testing.T) {
	for ki, sk := range engineTestKeys() {
		r := mrand.New(mrand.NewSource(int64(50 + ki)))
		for i := 0; i < 8; i++ {
			m := new(big.Int).Rand(r, sk.N)
			c, err := sk.Encrypt(rand.Reader, m)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := sk.DecryptNaive(c)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := sk.Decrypt(c)
			if err != nil {
				t.Fatal(err)
			}
			if slow.Cmp(fast) != 0 || fast.Cmp(m) != 0 {
				t.Errorf("key %d m=%v: naive=%v crt=%v", ki, m, slow, fast)
			}
		}
	}
}

func TestDJEncryptClosedFormMatchesNaive(t *testing.T) {
	for ki, sk := range engineTestKeys() {
		r := mrand.New(mrand.NewSource(int64(101 + ki)))
		for i := 0; i < 20; i++ {
			m := new(big.Int).Rand(r, sk.N)
			nonce, err := sk.RandomUnit(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sk.EncryptWithNonceNaive(m, nonce)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sk.EncryptWithNonce(m, nonce)
			if err != nil {
				t.Fatal(err)
			}
			if got.C.Cmp(want.C) != 0 {
				t.Fatalf("key %d case %d: closed form differs from Exp", ki, i)
			}
		}
		// Range errors must match too.
		if _, err := sk.EncryptWithNonce(new(big.Int).Neg(big.NewInt(1)), big.NewInt(3)); err == nil {
			t.Fatal("engine accepted negative message")
		}
		if _, err := sk.EncryptWithNonce(sk.N, big.NewInt(3)); err == nil {
			t.Fatal("engine accepted out-of-range message")
		}
	}
}

// TestEncryptManyWorkerCountIndependent pins the batched path: the same
// deterministic random stream must yield byte-identical ciphertexts at
// every worker count, and each must match a serial Encrypt over that
// stream.
func TestEncryptManyWorkerCountIndependent(t *testing.T) {
	k := FixedTestKey(0)
	msgs := make([]*big.Int, 9)
	r := mrand.New(mrand.NewSource(42))
	for i := range msgs {
		msgs[i] = new(big.Int).Rand(r, k.N)
	}
	var runs [][]*Ciphertext
	for _, workers := range []int{1, 2, 8} {
		cts, err := k.EncryptMany(fixedStream(7), msgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(cts) != len(msgs) {
			t.Fatalf("workers=%d: %d ciphertexts for %d messages", workers, len(cts), len(msgs))
		}
		runs = append(runs, cts)
	}
	for w := 1; w < len(runs); w++ {
		for i := range msgs {
			if runs[0][i].C.Cmp(runs[w][i].C) != 0 {
				t.Fatalf("message %d: run 0 and run %d differ", i, w)
			}
		}
	}
	serial := fixedStream(7)
	for i, ct := range runs[0] {
		one, err := k.Encrypt(serial, msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if one.C.Cmp(ct.C) != 0 {
			t.Fatalf("message %d: batch differs from serial Encrypt", i)
		}
		m, err := k.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if m.Cmp(msgs[i]) != 0 {
			t.Fatalf("message %d: round trip %v != %v", i, m, msgs[i])
		}
	}
}

// TestEncryptManyDegreeOneDecryptsAsPaillier: a parallel batch is plain
// Paillier — the private key decrypts every ciphertext of it, the range
// ends included.
func TestEncryptManyDegreeOneDecryptsAsPaillier(t *testing.T) {
	sk := FixedTestKey(1)
	msgs := []*big.Int{big.NewInt(0), big.NewInt(7), new(big.Int).Sub(sk.N, big.NewInt(1))}
	cts, err := sk.EncryptMany(rand.Reader, msgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range cts {
		m, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if m.Cmp(msgs[i]) != 0 {
			t.Fatalf("message %d: %v != %v", i, m, msgs[i])
		}
	}
}

// randomizerTestKeys are the safe-prime keys the randomizer tests run
// on: a 512-bit one always, the production-size one outside -short.
func randomizerTestKeys() map[string]*PrivateKey {
	keys := map[string]*PrivateKey{"512": FixedTestKey(0)}
	if !testing.Short() {
		keys["2048"] = FixedTestKey2048()
	}
	return keys
}

// allTestKeys is every fixed key: randomizerTestKeys plus the remaining
// 512-bit keys and the 768-bit one.
func allTestKeys() map[string]*PrivateKey {
	keys := randomizerTestKeys()
	for i := 1; i < NumFixedTestKeys; i++ {
		keys[fmt.Sprintf("512/%d", i)] = FixedTestKey(i)
	}
	keys["768"] = FixedTestKey768(0)
	return keys
}

// TestEncryptMatchesNonceReference is the randomizer's differential
// test: with ρ re-drawn from the same stream, Encrypt's ciphertext is
// EncryptWithNonce(m, h^ρ mod N) bit for bit — so everything downstream
// of a ciphertext sees exactly what the full-width path would have
// produced for that nonce — and it decrypts to m.
func TestEncryptMatchesNonceReference(t *testing.T) {
	for name, sk := range randomizerTestKeys() {
		rz := sk.randomizer()
		r := mrand.New(mrand.NewSource(1))
		msgs := []*big.Int{new(big.Int), new(big.Int).Sub(sk.N, one), new(big.Int).Rand(r, sk.N)}
		for i, m := range msgs {
			seed := int64(100 + i)
			got, err := sk.Encrypt(fixedStream(seed), m)
			if err != nil {
				t.Fatal(err)
			}
			// ρ re-drawn by crypto/rand.Int: the slab draw reads the
			// stream exactly as it does.
			rho, err := rand.Int(fixedStream(seed), new(big.Int).Lsh(one, uint(rz.bits)))
			if err != nil {
				t.Fatal(err)
			}
			if rho.BitLen() > (sk.N.BitLen()+1)/2 {
				t.Fatalf("key %s: ρ has %d bits", name, rho.BitLen())
			}
			want, err := sk.EncryptWithNonce(m, new(big.Int).Exp(rz.h, rho, sk.N))
			if err != nil {
				t.Fatal(err)
			}
			if got.C.Cmp(want.C) != 0 {
				t.Fatalf("key %s message %d: Encrypt differs from EncryptWithNonce(m, h^ρ)", name, i)
			}
			if dec, err := sk.Decrypt(got); err != nil || dec.Cmp(m) != 0 {
				t.Fatalf("key %s message %d: round trip %v, %v", name, i, dec, err)
			}
		}
	}
}

// TestEncryptManyWipesItsNonces: with its ciphertext a ρ gives back the
// plaintext, so the batch's exponent slab must be zero once encryptMany
// returns — after a batch that encrypted and after one a bad message
// failed — while the ciphertexts were built from the ρ it held.
func TestEncryptManyWipesItsNonces(t *testing.T) {
	sk := FixedTestKey(0)
	rz := sk.randomizer()
	wiped := func(what string, ns *nonces, count int) {
		t.Helper()
		if len(ns.rho) != count || len(ns.words) < count {
			t.Fatalf("%s: %d exponents in %d words, want %d", what, len(ns.rho), len(ns.words), count)
		}
		for i, w := range ns.words {
			if w != 0 {
				t.Fatalf("%s: word %d of the exponent slab survived the batch", what, i)
			}
		}
		for i := range ns.rho {
			if ns.rho[i].Bits() != nil {
				t.Fatalf("%s: exponent %d still holds its words", what, i)
			}
		}
	}

	ms := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)}
	var ns nonces
	cts, err := sk.encryptMany(fixedStream(7), ms, 2, &ns)
	if err != nil {
		t.Fatal(err)
	}
	wiped("encrypted batch", &ns, len(ms))
	stream := fixedStream(7)
	for i, m := range ms {
		rho, err := rand.Int(stream, new(big.Int).Lsh(one, uint(rz.bits)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := sk.EncryptWithNonce(m, new(big.Int).Exp(rz.h, rho, sk.N))
		if err != nil {
			t.Fatal(err)
		}
		if cts[i].C.Cmp(want.C) != 0 {
			t.Fatalf("ciphertext %d was not built from the drawn ρ", i)
		}
	}

	ns = nonces{}
	if _, err := sk.encryptMany(fixedStream(8), []*big.Int{big.NewInt(1), sk.N}, 1, &ns); err == nil {
		t.Fatal("a message of N encrypted")
	}
	wiped("failed batch", &ns, 2)
}

// TestRandomizerBaseGeneratesJacobiGroup: on a safe-prime key the
// Jacobi-(+1) subgroup of Z*_N is cyclic of order 2M = 2p'q', and
// h = −x² must generate all of it — its powers are the nonces, so a
// smaller orbit would be a smaller randomness space. h has order 2M iff
// h^{2M} = 1 and no h^{2M/ℓ} is, ℓ ∈ {2, p', q'}. The base must also be
// a function of N alone.
func TestRandomizerBaseGeneratesJacobiGroup(t *testing.T) {
	for name, sk := range allTestKeys() {
		h := sk.randomizer().h
		if x := randomizerBase(sk.N); x.Cmp(randomizerBase(sk.N)) != 0 {
			t.Fatalf("key %s: base is not deterministic in N", name)
		} else if want := x.Mul(x, x).Neg(x).Mod(x, sk.N); want.Cmp(h) != 0 {
			t.Fatalf("key %s: h is not −x² mod N", name)
		}
		if big.Jacobi(h, sk.N) != 1 {
			t.Fatalf("key %s: h has Jacobi symbol ≠ 1", name)
		}
		pow := func(e *big.Int) *big.Int { return new(big.Int).Exp(h, e, sk.N) }
		twoM := new(big.Int).Lsh(sk.M, 1)
		if pow(twoM).Cmp(one) != 0 {
			t.Fatalf("key %s: h^{2M} ≠ 1", name)
		}
		pPrime := new(big.Int).Rsh(sk.P, 1)
		qPrime := new(big.Int).Rsh(sk.Q, 1)
		for what, e := range map[string]*big.Int{
			"h^M": sk.M, "h^2": big.NewInt(2),
			"h^{2p'}": new(big.Int).Lsh(pPrime, 1), "h^{2q'}": new(big.Int).Lsh(qPrime, 1),
		} {
			if pow(e).Cmp(one) == 0 {
				t.Fatalf("key %s: %s = 1, h does not generate the Jacobi-(+1) group", name, what)
			}
		}
	}
}

// TestRandomizerConcurrentInit hammers the lazy randomizer build from
// many goroutines; under -race it witnesses the compare-and-swap init,
// and every caller must end up on the one winning table.
func TestRandomizerConcurrentInit(t *testing.T) {
	sk := FixedTestKey(3)
	k := &sk.PublicKey
	m := big.NewInt(31337)
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := k.Encrypt(rand.Reader, m)
			if err != nil {
				t.Errorf("concurrent encrypt: %v", err)
				return
			}
			if got, err := sk.Decrypt(c); err != nil || got.Cmp(m) != 0 {
				t.Errorf("concurrent encrypt round trip: %v, %v", got, err)
			}
			if k.randomizer() != k.rnd.Load() {
				t.Error("randomizer() returned a table that lost the swap")
			}
		}()
	}
	wg.Wait()
}

// fixedStream is a deterministic "random" source so two EncryptMany
// runs see the same nonce stream.
func fixedStream(seed int64) *deterministicReader {
	return &deterministicReader{r: mrand.New(mrand.NewSource(seed))}
}

type deterministicReader struct{ r *mrand.Rand }

func (d *deterministicReader) Read(p []byte) (int, error) { return d.r.Read(p) }

// TestDJStateConcurrentInit decrypts one ciphertext from many goroutines;
// under -race it witnesses that Decrypt only reads the CRT state the key
// was built with.
func TestDJStateConcurrentInit(t *testing.T) {
	k := FixedTestKey(2)
	m := big.NewInt(424242)
	c, err := k.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := k.Decrypt(c)
			if err != nil || got.Cmp(m) != 0 {
				t.Errorf("concurrent decrypt: %v, %v", got, err)
			}
		}()
	}
	wg.Wait()
}

func TestFixedTestKey2048(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-bit safe-prime verification is slow")
	}
	k := FixedTestKey2048()
	if got := k.N.BitLen(); got != 2048 {
		t.Fatalf("modulus is %d bits, want 2048", got)
	}
	if k.M == nil {
		t.Fatal("2048-bit fixed key is not a safe-prime key")
	}
	c, err := k.Encrypt(rand.Reader, big.NewInt(987654321))
	if err != nil {
		t.Fatal(err)
	}
	m, err := k.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 987654321 {
		t.Fatalf("round trip: %v", m)
	}
}

// FuzzPaillierEngineVsNaive pins the paillier engine paths — CRT
// signed exponentiation, CRT decryption, and closed-form encryption —
// bit-for-bit against the retained naive references over fuzzer-chosen
// values and keys (keyIndex picks one of the fixed 512-bit keys).
func FuzzPaillierEngineVsNaive(f *testing.F) {
	f.Add([]byte{7}, []byte{3}, []byte{9}, uint8(1), false)
	f.Add([]byte{0xff, 0x01}, []byte{0x80, 0x55}, []byte{2}, uint8(2), true)
	f.Fuzz(func(t *testing.T, baseB, expB, mB []byte, keyIndex uint8, neg bool) {
		sk := FixedTestKey(int(keyIndex) % NumFixedTestKeys)

		base := new(big.Int).SetBytes(baseB)
		base.Mod(base, sk.N2)
		exp := new(big.Int).SetBytes(expB)
		if exp.BitLen() > 8192 {
			t.Skip()
		}
		if neg {
			exp.Neg(exp)
		}
		want, errN := modexp.ExpSigned(base, exp, sk.N2)
		got, errE := sk.ExpSignedCRT(base, exp)
		if (errN == nil) != (errE == nil) {
			t.Fatalf("err mismatch: naive=%v engine=%v", errN, errE)
		}
		if errN == nil && got.Cmp(want) != 0 {
			t.Fatalf("ExpSignedCRT=%v naive=%v", got, want)
		}

		m := new(big.Int).SetBytes(mB)
		m.Mod(m, sk.N)
		nonce := new(big.Int).SetBytes(baseB)
		nonce.Mod(nonce, sk.N)
		if nonce.Sign() == 0 || new(big.Int).GCD(nil, nil, nonce, sk.N).Cmp(big.NewInt(1)) != 0 {
			nonce = big.NewInt(3)
		}
		ctN, errN2 := sk.EncryptWithNonceNaive(m, nonce)
		ctE, errE2 := sk.EncryptWithNonce(m, nonce)
		if (errN2 == nil) != (errE2 == nil) {
			t.Fatalf("encrypt err mismatch: naive=%v engine=%v", errN2, errE2)
		}
		if errN2 == nil {
			if ctE.C.Cmp(ctN.C) != 0 {
				t.Fatal("closed-form encryption differs from naive")
			}
			dN, errN3 := sk.DecryptNaive(ctN)
			dE, errE3 := sk.Decrypt(ctN)
			if (errN3 == nil) != (errE3 == nil) {
				t.Fatalf("decrypt err mismatch: naive=%v engine=%v", errN3, errE3)
			}
			if errN3 == nil {
				if dN.Cmp(dE) != 0 {
					t.Fatalf("Decrypt=%v naive=%v", dE, dN)
				}
				if dN.Cmp(m) != 0 {
					t.Fatalf("round trip: got %v want %v", dN, m)
				}
			}
		}
	})
}

// EncryptWithNonce encrypts m ∈ [0, N) with caller-supplied randomness
// r ∈ Z*_N: (1+N)^m = 1 + mN times one full-width r^N exponentiation. It
// is the reference the randomizer path is pinned to: Encrypt's output is
// EncryptWithNonce(m, h^ρ mod N) bit for bit.
func (pk *PublicKey) EncryptWithNonce(m, r *big.Int) (*Ciphertext, error) {
	gm, err := pk.onePlusNTo(m)
	if err != nil {
		return nil, err
	}
	c := gm.Mul(gm, new(big.Int).Exp(r, pk.N, pk.N2))
	return &Ciphertext{C: c.Mod(c, pk.N2)}, nil
}
