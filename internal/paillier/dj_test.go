package paillier

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func djKey(t testing.TB, s int) *DJKey {
	t.Helper()
	k, err := NewDJKey(FixedTestKey(1), s)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestDJDegreeOneMatchesPaillier(t *testing.T) {
	k := djKey(t, 1)
	m := big.NewInt(123456789)
	c, err := k.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	// A degree-1 DJ ciphertext is a plain Paillier ciphertext.
	got, err := k.Base.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(m) != 0 {
		t.Errorf("base decrypt = %v, want %v", got, m)
	}
	got, err = k.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(m) != 0 {
		t.Errorf("DJ decrypt = %v, want %v", got, m)
	}
}

func TestDJRoundTripHigherDegrees(t *testing.T) {
	for _, s := range []int{2, 3, 4} {
		k := djKey(t, s)
		msgs := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(k.Base.N, big.NewInt(3)), // > N^{s-1} regions
			new(big.Int).Rsh(k.Ns, 1),                 // huge: N^s / 2
			new(big.Int).Sub(k.Ns, big.NewInt(1)),     // N^s − 1
		}
		for _, m := range msgs {
			c, err := k.Encrypt(rand.Reader, m)
			if err != nil {
				t.Fatalf("s=%d Encrypt(%v): %v", s, m, err)
			}
			got, err := k.Decrypt(c)
			if err != nil {
				t.Fatalf("s=%d Decrypt: %v", s, err)
			}
			if got.Cmp(m) != 0 {
				t.Errorf("s=%d: round trip got %v, want %v", s, got, m)
			}
		}
	}
}

func TestDJHomomorphism(t *testing.T) {
	k := djKey(t, 2)
	// Messages larger than N — impossible under plain Paillier.
	a := new(big.Int).Add(k.Base.N, big.NewInt(12345))
	b := new(big.Int).Lsh(k.Base.N, 1)
	ca, err := k.Encrypt(rand.Reader, a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := k.Encrypt(rand.Reader, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Decrypt(k.Add(ca, cb))
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Add(a, b)
	if got.Cmp(want) != 0 {
		t.Errorf("Enc(a)+Enc(b) = %v, want %v", got, want)
	}
	got, err = k.Decrypt(k.ScalarMul(ca, big.NewInt(1000)))
	if err != nil {
		t.Fatal(err)
	}
	want = new(big.Int).Mul(a, big.NewInt(1000))
	if got.Cmp(want) != 0 {
		t.Errorf("1000·Enc(a) = %v, want %v", got, want)
	}
}

func TestDJScalarMulNegative(t *testing.T) {
	k := djKey(t, 2)
	c, err := k.Encrypt(rand.Reader, big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Decrypt(k.ScalarMul(c, big.NewInt(-2)))
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Sub(k.Ns, big.NewInt(14))
	if got.Cmp(want) != 0 {
		t.Errorf("-2·Enc(7) = %v, want N^s−14", got)
	}
}

func TestDJValidation(t *testing.T) {
	if _, err := NewDJKey(FixedTestKey(1), 0); err == nil {
		t.Error("accepted s=0")
	}
	if _, err := NewDJKey(nil, 1); err == nil {
		t.Error("accepted nil base key")
	}
	k := djKey(t, 2)
	if _, err := k.Encrypt(rand.Reader, big.NewInt(-1)); err == nil {
		t.Error("accepted negative message")
	}
	if _, err := k.Encrypt(rand.Reader, k.Ns); err == nil {
		t.Error("accepted message == N^s")
	}
	if _, err := k.Decrypt(&Ciphertext{C: big.NewInt(0)}); err == nil {
		t.Error("accepted zero ciphertext")
	}
	if _, err := k.Decrypt(nil); err == nil {
		t.Error("accepted nil ciphertext")
	}
}

func TestDJDLogDirect(t *testing.T) {
	k := djKey(t, 3)
	onePlusN := new(big.Int).Add(k.Base.N, big.NewInt(1))
	for _, i := range []*big.Int{big.NewInt(0), big.NewInt(42), new(big.Int).Rsh(k.Ns, 2)} {
		a := new(big.Int).Exp(onePlusN, i, k.Ns1)
		got, err := k.DLogOnePlusN(a)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(i) != 0 {
			t.Errorf("dLog((1+N)^%v) = %v", i, got)
		}
	}
}

func TestDJByteLen(t *testing.T) {
	k1 := djKey(t, 1)
	k3 := djKey(t, 3)
	if k3.ByteLen() <= k1.ByteLen() {
		t.Error("degree-3 ciphertexts not larger than degree-1")
	}
}

func BenchmarkDJDecryptS2(b *testing.B) {
	k, err := NewDJKey(FixedTestKey(1), 2)
	if err != nil {
		b.Fatal(err)
	}
	c, err := k.Encrypt(rand.Reader, big.NewInt(987654321))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Decrypt(c); err != nil {
			b.Fatal(err)
		}
	}
}
