package nizk

import (
	"bytes"
	"math/big"
	"testing"

	"yosompc/internal/paillier"
)

func TestAttestVerify(t *testing.T) {
	a := MustNewAuthority()
	st := NewStatement("test").AddString("hello").Bytes()
	p := a.Attest(st)
	if !a.Verify(st, p) {
		t.Error("honest proof rejected")
	}
}

func TestAttestWrongStatement(t *testing.T) {
	a := MustNewAuthority()
	st1 := NewStatement("test").AddString("one").Bytes()
	st2 := NewStatement("test").AddString("two").Bytes()
	p := a.Attest(st1)
	if a.Verify(st2, p) {
		t.Error("proof verified against different statement")
	}
}

func TestForgeDoesNotVerify(t *testing.T) {
	a := MustNewAuthority()
	st := NewStatement("test").AddString("target").Bytes()
	for i := 0; i < 8; i++ {
		if a.Verify(st, a.Forge()) {
			t.Fatal("forged proof verified")
		}
	}
}

func TestDistinctAuthoritiesDisagree(t *testing.T) {
	a1 := MustNewAuthority()
	a2 := MustNewAuthority()
	st := NewStatement("test").AddString("x").Bytes()
	if a2.Verify(st, a1.Attest(st)) {
		t.Error("proof from a different authority verified")
	}
}

func TestProofSerializationRoundTrip(t *testing.T) {
	a := MustNewAuthority()
	st := NewStatement("test").AddString("serialize").Bytes()
	p := a.Attest(st)
	p2, err := ProofFromBytes(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Verify(st, p2) {
		t.Error("round-tripped proof rejected")
	}
	if _, err := ProofFromBytes([]byte{1, 2, 3}); err == nil {
		t.Error("accepted short proof encoding")
	}
}

func TestProofConstantSize(t *testing.T) {
	a := MustNewAuthority()
	small := a.Attest([]byte("s"))
	large := a.Attest(bytes.Repeat([]byte("x"), 10000))
	if len(small.Bytes()) != AttestedProofSize || len(large.Bytes()) != AttestedProofSize {
		t.Errorf("sizes %d, %d; want constant %d", len(small.Bytes()), len(large.Bytes()), AttestedProofSize)
	}
}

func TestStatementOrderSensitive(t *testing.T) {
	s1 := NewStatement("l").AddString("a").AddString("b").Bytes()
	s2 := NewStatement("l").AddString("b").AddString("a").Bytes()
	if bytes.Equal(s1, s2) {
		t.Error("statement digest insensitive to component order")
	}
	s3 := NewStatement("other").AddString("a").AddString("b").Bytes()
	if bytes.Equal(s1, s3) {
		t.Error("statement digest insensitive to label")
	}
}

func TestEqExpProofHonest(t *testing.T) {
	// Shoup-style setting: modulus N², bases c^4 and v, witness Δ·d_i.
	sk := paillier.FixedTestKey(2)
	mod := sk.N2
	g1 := big.NewInt(12345)
	g1.Exp(g1, big.NewInt(2), mod) // square → in QR
	g2 := big.NewInt(67890)
	g2.Exp(g2, big.NewInt(2), mod)
	w := big.NewInt(987654321)
	h1 := new(big.Int).Exp(g1, w, mod)
	h2 := new(big.Int).Exp(g2, w, mod)
	proof, err := ProveEqExp(mod, g1, g2, h1, h2, w, big.NewInt(1_000_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyEqExp(mod, g1, g2, h1, h2, proof) {
		t.Error("honest eq-exp proof rejected")
	}
}

func TestEqExpProofUnequalExponents(t *testing.T) {
	sk := paillier.FixedTestKey(2)
	mod := sk.N2
	g1 := new(big.Int).Exp(big.NewInt(3), big.NewInt(2), mod)
	g2 := new(big.Int).Exp(big.NewInt(5), big.NewInt(2), mod)
	w := big.NewInt(1111)
	h1 := new(big.Int).Exp(g1, w, mod)
	// h2 uses a DIFFERENT exponent — the claim is false.
	h2 := new(big.Int).Exp(g2, big.NewInt(2222), mod)
	proof, err := ProveEqExp(mod, g1, g2, h1, h2, w, big.NewInt(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if VerifyEqExp(mod, g1, g2, h1, h2, proof) {
		t.Error("proof of a false eq-exp statement verified")
	}
}

func TestEqExpProofTampered(t *testing.T) {
	sk := paillier.FixedTestKey(2)
	mod := sk.N2
	g1 := new(big.Int).Exp(big.NewInt(3), big.NewInt(2), mod)
	g2 := new(big.Int).Exp(big.NewInt(5), big.NewInt(2), mod)
	w := big.NewInt(77)
	h1 := new(big.Int).Exp(g1, w, mod)
	h2 := new(big.Int).Exp(g2, w, mod)
	proof, err := ProveEqExp(mod, g1, g2, h1, h2, w, big.NewInt(100))
	if err != nil {
		t.Fatal(err)
	}
	bad := &EqExpProof{A1: proof.A1, A2: proof.A2, Z: new(big.Int).Add(proof.Z, big.NewInt(1))}
	if VerifyEqExp(mod, g1, g2, h1, h2, bad) {
		t.Error("tampered eq-exp proof verified")
	}
	if VerifyEqExp(mod, g1, g2, h1, h2, nil) {
		t.Error("nil proof verified")
	}
}

func BenchmarkAttest(b *testing.B) {
	a := MustNewAuthority()
	st := NewStatement("bench").AddString("x").Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Attest(st)
	}
}

// MustNewAuthority is NewAuthority panicking on randomness failure.
func MustNewAuthority() *Authority {
	a, err := NewAuthority()
	if err != nil {
		panic(err)
	}
	return a
}
