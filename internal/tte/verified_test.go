package tte

import (
	"math/big"
	"testing"

	"yosompc/internal/paillier"
)

func verifiedSetup(t *testing.T, n, tt int) (*Threshold, PublicKey, []KeyShare, *VerificationKeys) {
	t.Helper()
	sc, err := NewThreshold(paillier.FixedTestKey(0))
	if err != nil {
		t.Fatal(err)
	}
	pk, shares, vk, err := sc.KeyGenVerified(n, tt)
	if err != nil {
		t.Fatal(err)
	}
	return sc, pk, shares, vk
}

func TestVerifiedPartialHonest(t *testing.T) {
	sc, pk, shares, vk := verifiedSetup(t, 4, 1)
	ct, err := sc.Encrypt(pk, big.NewInt(777), big.NewInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		part, err := sc.PartialDecrypt(pk, shares[i-1], ct)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := sc.ProvePartial(pk, shares[i-1], ct, part, vk)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.VerifyPartial(pk, i, ct, part, vk, proof) {
			t.Errorf("honest partial %d rejected", i)
		}
	}
}

func TestVerifiedPartialDetectsCheating(t *testing.T) {
	sc, pk, shares, vk := verifiedSetup(t, 4, 1)
	ct, err := sc.Encrypt(pk, big.NewInt(10), big.NewInt(10))
	if err != nil {
		t.Fatal(err)
	}
	other, err := sc.Encrypt(pk, big.NewInt(99), big.NewInt(99))
	if err != nil {
		t.Fatal(err)
	}
	// A malicious party publishes the partial of a DIFFERENT ciphertext
	// (type-correct garbage that would corrupt the combination).
	badPart, err := sc.PartialDecrypt(pk, shares[0], other)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := sc.ProvePartial(pk, shares[0], other, badPart, vk)
	if err != nil {
		t.Fatal(err)
	}
	if sc.VerifyPartial(pk, 1, ct, badPart, vk, proof) {
		t.Error("partial of wrong ciphertext verified against ct")
	}
	// Claiming another party's index also fails.
	goodPart, err := sc.PartialDecrypt(pk, shares[0], ct)
	if err != nil {
		t.Fatal(err)
	}
	goodProof, err := sc.ProvePartial(pk, shares[0], ct, goodPart, vk)
	if err != nil {
		t.Fatal(err)
	}
	if sc.VerifyPartial(pk, 2, ct, goodPart, vk, goodProof) {
		t.Error("partial verified under the wrong index")
	}
}

func TestVerifiedPartialNilInputs(t *testing.T) {
	sc, pk, shares, vk := verifiedSetup(t, 3, 1)
	ct, err := sc.Encrypt(pk, big.NewInt(1), big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	part, err := sc.PartialDecrypt(pk, shares[0], ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ProvePartial(pk, shares[0], ct, part, nil); err == nil {
		t.Error("ProvePartial accepted nil verification keys")
	}
	if sc.VerifyPartial(pk, 1, ct, part, nil, nil) {
		t.Error("VerifyPartial accepted nil keys/proof")
	}
	if sc.VerifyPartial(pk, 99, ct, part, vk, nil) {
		t.Error("VerifyPartial accepted out-of-range index")
	}
}
