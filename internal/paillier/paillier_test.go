package paillier

import (
	"crypto/rand"
	"errors"
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
	dj, err := NewDJKey(FixedTestKey(0), 1)
	if err != nil {
		b.Fatal(err)
	}
	m := new(big.Int).Rsh(dj.Ns, 1)
	r, err := dj.Base.PublicKey.RandomUnit(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	dj.randomizer() // the once-per-key table build stays off the clock
	for _, v := range []struct {
		name string
		enc  func(m, r *big.Int) (*Ciphertext, error)
	}{
		{"randomizer", func(m, _ *big.Int) (*Ciphertext, error) { return dj.Encrypt(rand.Reader, m) }},
		{"engine", dj.EncryptWithNonce},
		{"naive", dj.EncryptWithNonceNaive},
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

// TestDecryptCRTMatchesDecrypt pins PrivateKey.Decrypt — the DJ s = 1 CRT
// path — to the retained naive single-exponentiation reference on every
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
	dj, err := NewDJKey(sk, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := dj.ScalarMul(dj.Add(c1, c2), big.NewInt(7))
	got, err := sk.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(70000)) != 0 {
		t.Errorf("CRT decrypt of 7(1234+8766) = %v", got)
	}
}
