package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"testing"
)

func testKey(t testing.TB) *PrivateKey {
	t.Helper()
	return FixedTestKey(0)
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := testKey(t)
	messages := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(123456789),
		new(big.Int).Sub(sk.N, big.NewInt(1)),
	}
	for _, m := range messages {
		c, err := sk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatalf("Encrypt(%v): %v", m, err)
		}
		got, err := sk.Decrypt(c)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if got.Cmp(m) != 0 {
			t.Errorf("round trip: got %v, want %v", got, m)
		}
	}
}

func TestEncryptRejectsOutOfRange(t *testing.T) {
	sk := testKey(t)
	if _, err := sk.Encrypt(rand.Reader, big.NewInt(-1)); err == nil {
		t.Error("accepted negative message")
	}
	if _, err := sk.Encrypt(rand.Reader, sk.N); err == nil {
		t.Error("accepted message == N")
	}
}

func TestCiphertextsProbabilistic(t *testing.T) {
	sk := testKey(t)
	m := big.NewInt(42)
	c1, err := sk.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := sk.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	if c1.C.Cmp(c2.C) == 0 {
		t.Error("two encryptions of same message identical")
	}
}

func TestDecryptRejectsMalformed(t *testing.T) {
	sk := testKey(t)
	bad := []*Ciphertext{
		nil,
		{C: nil},
		{C: big.NewInt(0)},
		{C: new(big.Int).Set(sk.N2)},
	}
	for i, c := range bad {
		if _, err := sk.Decrypt(c); !errors.Is(err, ErrDecryption) {
			t.Errorf("case %d: malformed ciphertext: err = %v, want ErrDecryption", i, err)
		}
	}
}

func TestGenerateKeySmall(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	m := big.NewInt(99)
	c, err := sk.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(m) != 0 {
		t.Errorf("fresh key round trip = %v", got)
	}
}

func TestGenerateKeyRejectsTiny(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 32); err == nil {
		t.Error("accepted 32-bit modulus")
	}
	if _, err := GenerateSafeKey(rand.Reader, 32); err == nil {
		t.Error("safe keygen accepted 32-bit modulus")
	}
}

func TestFixedTestKeysAreSafePrimeKeys(t *testing.T) {
	for i := 0; i < NumFixedTestKeys; i++ {
		k := FixedTestKey(i)
		if k.M == nil {
			t.Errorf("fixed key %d missing M (not safe-prime)", i)
		}
		// N = (2M + p' + q' + ...) sanity: p,q prime and p=2p'+1 form.
		pp := new(big.Int).Rsh(new(big.Int).Sub(k.P, big.NewInt(1)), 1)
		qp := new(big.Int).Rsh(new(big.Int).Sub(k.Q, big.NewInt(1)), 1)
		if new(big.Int).Mul(pp, qp).Cmp(k.M) != 0 {
			t.Errorf("fixed key %d: M != p'q'", i)
		}
	}
}

func TestFixedTestKey768(t *testing.T) {
	k := FixedTestKey768(0)
	if k.N.BitLen() < 760 {
		t.Errorf("768-bit key has %d-bit modulus", k.N.BitLen())
	}
	c, err := k.Encrypt(rand.Reader, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(5)) != 0 {
		t.Error("768-bit key round trip failed")
	}
}

func TestFixedTestKeyPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range index")
		}
	}()
	FixedTestKey(NumFixedTestKeys)
}

// BenchmarkEncrypt and BenchmarkDecrypt time the engine paths against the
// retained naive references on the same input (E14a's per-operation
// ratios); the differential tests pin the two bit-for-bit.
func BenchmarkEncrypt(b *testing.B) {
	pk := &FixedTestKey(0).PublicKey
	m := new(big.Int).Rsh(pk.N, 1)
	r, err := pk.RandomUnit(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	pk.randomizer() // the once-per-key table build stays off the clock
	for _, v := range []struct {
		name string
		enc  func(m, r *big.Int) (*Ciphertext, error)
	}{
		{"randomizer", func(m, _ *big.Int) (*Ciphertext, error) { return pk.Encrypt(rand.Reader, m) }},
		{"engine", pk.EncryptWithNonce},
		{"naive", pk.EncryptWithNonceNaive},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := v.enc(m, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecrypt(b *testing.B) {
	sk := FixedTestKey(0)
	c, err := sk.Encrypt(rand.Reader, big.NewInt(123456))
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		dec  func(*Ciphertext) (*big.Int, error)
	}{{"engine", sk.Decrypt}, {"naive", sk.DecryptNaive}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := v.dec(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecryptCRTMatchesDecrypt pins PrivateKey.Decrypt — the CRT path —
// to the retained naive single-exponentiation reference on every
// fixed key.
func TestDecryptCRTMatchesDecrypt(t *testing.T) {
	for name, sk := range allTestKeys() {
		msgs := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(999_983),
			new(big.Int).Rsh(sk.N, 1),
			new(big.Int).Sub(sk.N, big.NewInt(1)),
		}
		for _, m := range msgs {
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
				t.Errorf("key %s m=%v: slow=%v fast=%v", name, m, slow, fast)
			}
		}
	}
}

func TestDecryptCRTAfterHomomorphics(t *testing.T) {
	sk := testKey(t)
	c1, err := sk.Encrypt(rand.Reader, big.NewInt(1234))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := sk.Encrypt(rand.Reader, big.NewInt(8766))
	if err != nil {
		t.Fatal(err)
	}
	sum := sk.ScalarMul(sk.Add(c1, c2), big.NewInt(7))
	got, err := sk.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(70000)) != 0 {
		t.Errorf("CRT decrypt of 7(1234+8766) = %v", got)
	}
}

// TestDJHomomorphism checks Add and ScalarMul on the plaintext space Z_N:
// a sum below N decrypts to itself, and a scalar multiple wraps mod N.
func TestDJHomomorphism(t *testing.T) {
	sk := FixedTestKey(1)
	a := new(big.Int).Add(new(big.Int).Div(sk.N, big.NewInt(3)), big.NewInt(12345))
	b := new(big.Int).Div(sk.N, big.NewInt(5))
	ca, err := sk.Encrypt(rand.Reader, a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := sk.Encrypt(rand.Reader, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(sk.Add(ca, cb))
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Add(a, b)
	if got.Cmp(want) != 0 {
		t.Errorf("Enc(a)+Enc(b) = %v, want %v", got, want)
	}
	got, err = sk.Decrypt(sk.ScalarMul(ca, big.NewInt(1000)))
	if err != nil {
		t.Fatal(err)
	}
	want.Mul(a, big.NewInt(1000)).Mod(want, sk.N)
	if got.Cmp(want) != 0 {
		t.Errorf("1000·Enc(a) = %v, want %v", got, want)
	}
}

func TestDJScalarMulNegative(t *testing.T) {
	sk := FixedTestKey(1)
	c, err := sk.Encrypt(rand.Reader, big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(sk.ScalarMul(c, big.NewInt(-2)))
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Sub(sk.N, big.NewInt(14))
	if got.Cmp(want) != 0 {
		t.Errorf("-2·Enc(7) = %v, want N−14", got)
	}
}

func TestDJValidation(t *testing.T) {
	sk := FixedTestKey(1)
	if _, err := sk.Encrypt(rand.Reader, big.NewInt(-1)); !errors.Is(err, ErrMessageRange) {
		t.Errorf("negative message: err = %v, want ErrMessageRange", err)
	}
	if _, err := sk.Encrypt(rand.Reader, sk.N); !errors.Is(err, ErrMessageRange) {
		t.Errorf("message == N: err = %v, want ErrMessageRange", err)
	}
	if _, err := sk.Decrypt(&Ciphertext{C: big.NewInt(0)}); err == nil {
		t.Error("accepted zero ciphertext")
	}
	if _, err := sk.Decrypt(nil); err == nil {
		t.Error("accepted nil ciphertext")
	}
}

// TestDJDLogDirect checks L on powers of 1+N, and its refusal of a value
// that is not one.
func TestDJDLogDirect(t *testing.T) {
	sk := FixedTestKey(1)
	onePlusN := new(big.Int).Add(sk.N, one)
	for _, i := range []*big.Int{big.NewInt(0), big.NewInt(42), new(big.Int).Rsh(sk.N, 2), new(big.Int).Sub(sk.N, one)} {
		got, err := sk.L(new(big.Int).Exp(onePlusN, i, sk.N2))
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(i) != 0 {
			t.Errorf("L((1+N)^%v) = %v", i, got)
		}
	}
	if _, err := sk.L(big.NewInt(2)); !errors.Is(err, ErrDecryption) {
		t.Errorf("L(2): err = %v, want ErrDecryption", err)
	}
}

// RandomUnit samples r uniformly from Z*_N.
func (pk *PublicKey) RandomUnit(random io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: sampling unit: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

var fixedSafePrimes384 = []string{
	"cac00c87a4612bebe56131d1133f978dba3b4c89df8814eb899cbc875f6aa1be9398dd3f145d5148ce38354391a98813",
	"cae5d4cef7a63d94d7e5f7c4365ea6f6fa9687bd10101d1f015ceccd23c840d505207b7d630e843c049571dba688f9f7",
	"e0fb1cad46ffe27b91d49f3858c99b4dfdf0513194ec7f185a04f5c2ebdb9b13ef3e07d54319176354d5a021d95f6897",
	"cc6ad26d65233c08601e7d6bef91a1511d76d16ea4968b00e67504d8bbac8ecac28fc1c907926ef8ac6851026006da93",
}

// FixedTestKey768 returns the i-th deterministic 768-bit safe-prime key
// (i in {0, 1}). FOR TESTS AND DEMOS ONLY.
func FixedTestKey768(i int) *PrivateKey {
	if i < 0 || i >= 2 {
		panic(fmt.Sprintf("paillier: fixed 768-bit test key index %d out of range", i))
	}
	fixedKeyMu.Lock()
	defer fixedKeyMu.Unlock()
	idx := 100 + i
	if k, ok := fixedKeyCache[idx]; ok {
		return k
	}
	p := mustHex(fixedSafePrimes384[2*i])
	q := mustHex(fixedSafePrimes384[2*i+1])
	k, err := NewKeyFromSafePrimes(p, q)
	if err != nil {
		panic(fmt.Sprintf("paillier: fixed 768-bit test key %d: %v", i, err))
	}
	fixedKeyCache[idx] = k
	return k
}

// GenerateKey creates a Paillier key with a modulus of the given bit length
// from two random primes. Keys produced this way support Enc/Dec and the
// homomorphic operations but not the threshold extension.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, fmt.Errorf("paillier: modulus of %d bits is too small", bits)
	}
	p, err := rand.Prime(random, bits/2)
	if err != nil {
		return nil, fmt.Errorf("paillier: generating p: %w", err)
	}
	q, err := rand.Prime(random, bits-bits/2)
	if err != nil {
		return nil, fmt.Errorf("paillier: generating q: %w", err)
	}
	if p.Cmp(q) == 0 {
		return nil, errors.New("paillier: p == q")
	}
	return keyFromPrimes(p, q, nil)
}

// Add returns a ciphertext of the plaintext sum.
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	return &Ciphertext{C: c.Mod(c, pk.N2)}
}

// ScalarMul returns a ciphertext of s·m. Negative scalars use modular
// inversion of the ciphertext.
func (pk *PublicKey) ScalarMul(a *Ciphertext, s *big.Int) *Ciphertext {
	base, exp := a.C, s
	if s.Sign() < 0 {
		base = new(big.Int).ModInverse(a.C, pk.N2)
		exp = new(big.Int).Neg(s)
	}
	return &Ciphertext{C: new(big.Int).Exp(base, exp, pk.N2)}
}
