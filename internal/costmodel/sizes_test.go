package costmodel_test

import (
	"math/big"
	"testing"

	"yosompc/internal/costmodel"
	"yosompc/internal/field"
	"yosompc/internal/nizk"
	"yosompc/internal/pke"
	"yosompc/internal/tte"
)

// TestSimSizesMatchEncodings pins every SimSizes field to the length of the
// corresponding backend encoding. The cost model's closed-form predictions
// are validated byte-for-byte against measured runs, so a drift between a
// Sizes field and the real codec would silently skew every Table-1-scale
// projection; this test makes that drift a failure at the source.
func TestSimSizesMatchEncodings(t *testing.T) {
	const bits = 512
	z := costmodel.SimSizes(bits)
	te := tte.NewSim(bits)
	pk, shares, err := te.KeyGen(5, 1)
	if err != nil {
		t.Fatal(err)
	}

	ct, err := te.Encrypt(pk, big.NewInt(7), big.NewInt(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	ctEnc, err := te.EncodeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctEnc) != z.Ciphertext {
		t.Errorf("ciphertext encodes to %d bytes, SimSizes.Ciphertext = %d", len(ctEnc), z.Ciphertext)
	}

	part, err := te.PartialDecrypt(pk, shares[0], ct)
	if err != nil {
		t.Fatal(err)
	}
	partEnc, err := te.EncodePartial(part)
	if err != nil {
		t.Fatal(err)
	}
	if len(partEnc) != z.Partial {
		t.Errorf("partial encodes to %d bytes, SimSizes.Partial = %d", len(partEnc), z.Partial)
	}

	subs, err := te.Reshare(pk, shares[0])
	if err != nil {
		t.Fatal(err)
	}
	subEnc, err := te.EncodeSubShare(subs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(subEnc) != z.SubShare {
		t.Errorf("subshare encodes to %d bytes, SimSizes.SubShare = %d", len(subEnc), z.SubShare)
	}

	shareEnc, err := te.EncodeKeyShare(shares[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(shareEnc) != z.KeyShare {
		t.Errorf("key share encodes to %d bytes, SimSizes.KeyShare = %d", len(shareEnc), z.KeyShare)
	}

	scheme := pke.NewSim()
	pub, _, err := scheme.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(pub.Bytes()) != z.RoleKey {
		t.Errorf("role key is %d bytes, SimSizes.RoleKey = %d", len(pub.Bytes()), z.RoleKey)
	}
	// Envelope overhead must hold for every payload length: costmodel terms
	// of the form PKEOverhead+X assume len(Encrypt(msg)) ==
	// PKEOverhead+len(msg) exactly.
	for _, msgLen := range []int{0, 1, z.SubShare, z.Partial} {
		env, err := pub.Encrypt(make([]byte, msgLen))
		if err != nil {
			t.Fatal(err)
		}
		if len(env) != z.PKEOverhead+msgLen {
			t.Errorf("envelope for %d-byte message is %d bytes, want PKEOverhead+len = %d",
				msgLen, len(env), z.PKEOverhead+msgLen)
		}
	}

	if z.Proof != nizk.AttestedProofSize {
		t.Errorf("SimSizes.Proof = %d, nizk.AttestedProofSize = %d", z.Proof, nizk.AttestedProofSize)
	}
	if z.Element != field.ElementSize {
		t.Errorf("SimSizes.Element = %d, field.ElementSize = %d", z.Element, field.ElementSize)
	}
}
