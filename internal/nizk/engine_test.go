package nizk

import (
	"crypto/rand"
	"math/big"
	"testing"

	"yosompc/internal/modexp"
	"yosompc/internal/paillier"
)

// VerifyEqExpNaive is the reference for VerifyEqExp: two independent
// exponentiations per pair, no tables. Both sides compare canonical
// residues, so the verdicts — and the intermediate values — are
// identical to the engine's.
func VerifyEqExpNaive(modulus, g1, g2, h1, h2 *big.Int, proof *EqExpProof) bool {
	if proof == nil || proof.A1 == nil || proof.A2 == nil || proof.Z == nil {
		return false
	}
	e := eqExpChallenge(modulus, g1, g2, h1, h2, proof.A1, proof.A2)
	check := func(g, h, a *big.Int) bool {
		lhs, err := modexp.ExpSigned(g, proof.Z, modulus)
		if err != nil {
			return false
		}
		rhs := new(big.Int).Exp(h, e, modulus)
		rhs.Mul(rhs, a)
		rhs.Mod(rhs, modulus)
		return lhs.Cmp(rhs) == 0
	}
	return check(g1, h1, proof.A1) && check(g2, h2, proof.A2)
}

// eqExpInstance builds an honest EqExp statement over Z*_{N²} with the
// given (possibly negative) witness.
func eqExpInstance(t *testing.T, modulus, w *big.Int) (g1, g2, h1, h2 *big.Int) {
	t.Helper()
	square := func() *big.Int {
		r, err := rand.Int(rand.Reader, modulus)
		if err != nil {
			t.Fatalf("sampling base: %v", err)
		}
		r.Mul(r, r)
		r.Mod(r, modulus)
		if r.Sign() == 0 {
			r.SetInt64(4)
		}
		return r
	}
	g1, g2 = square(), square()
	var err error
	if h1, err = modexp.ExpSigned(g1, w, modulus); err != nil {
		t.Fatalf("h1: %v", err)
	}
	if h2, err = modexp.ExpSigned(g2, w, modulus); err != nil {
		t.Fatalf("h2: %v", err)
	}
	return g1, g2, h1, h2
}

// TestVerifyEqExpEngineMatchesNaive pins the engine verification path
// (the Straus A·h^e fold) to the retained naive reference on honest,
// tampered, and negative-witness proofs.
func TestVerifyEqExpEngineMatchesNaive(t *testing.T) {
	pk := &paillier.FixedTestKey(0).PublicKey
	wBound := new(big.Int).Lsh(big.NewInt(1), 256)
	for _, wc := range []struct {
		name string
		w    *big.Int
	}{
		{"positive", big.NewInt(0xdeadbeef)},
		{"negative", big.NewInt(-0x1337c0de)},
		{"zero", big.NewInt(0)},
	} {
		t.Run(wc.name, func(t *testing.T) {
			g1, g2, h1, h2 := eqExpInstance(t, pk.N2, wc.w)
			proof, err := ProveEqExp(pk.N2, g1, g2, h1, h2, wc.w, wBound)
			if err != nil {
				t.Fatalf("ProveEqExp: %v", err)
			}
			eng := VerifyEqExp(pk.N2, g1, g2, h1, h2, proof)
			if ref := VerifyEqExpNaive(pk.N2, g1, g2, h1, h2, proof); eng != ref {
				t.Fatalf("engine verdict %v != naive %v", eng, ref)
			}
			if !eng {
				t.Fatal("honest proof rejected")
			}
			bad := &EqExpProof{A1: proof.A1, A2: proof.A2, Z: new(big.Int).Add(proof.Z, big.NewInt(1))}
			if VerifyEqExp(pk.N2, g1, g2, h1, h2, bad) {
				t.Fatal("engine accepted a tampered proof")
			}
			if VerifyEqExpNaive(pk.N2, g1, g2, h1, h2, bad) {
				t.Fatal("naive accepted a tampered proof")
			}
		})
	}
}
