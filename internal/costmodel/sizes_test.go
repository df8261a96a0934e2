package costmodel_test

import (
	"math/big"
	"testing"

	"yosompc/internal/field"
	"yosompc/internal/nizk"
	"yosompc/internal/pke"
	"yosompc/internal/postlen"
	"yosompc/internal/tte"
)

// TestSimSizesMatchEncodings pins every SimSizes field to the length of the
// corresponding backend encoding. The cost model's predictions, sums of
// postlen's posting lengths, are validated byte-for-byte against measured
// runs, so a drift between a Sizes field and the real codec would silently
// skew every Table-1-scale projection; this test makes that drift a failure
// at the source.
func TestSimSizesMatchEncodings(t *testing.T) {
	const bits = 512
	z := postlen.SimSizes(bits)
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
	if len(partEnc) != z.Ciphertext {
		t.Errorf("partial encodes to %d bytes, SimSizes.Ciphertext = %d", len(partEnc), z.Ciphertext)
	}

	subs, err := te.Reshare(pk, shares[0])
	if err != nil {
		t.Fatal(err)
	}
	subEnc, err := te.AppendSubShare(nil, subs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(subEnc) != z.SubShare(0) {
		t.Errorf("subshare encodes to %d bytes, SimSizes.SubShare(0) = %d", len(subEnc), z.SubShare(0))
	}

	shareEnc, err := te.EncodeKeyShare(shares[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(shareEnc) != z.Ciphertext {
		t.Errorf("key share encodes to %d bytes, SimSizes.Ciphertext = %d", len(shareEnc), z.Ciphertext)
	}

	scheme := pke.NewSim()
	pub, _, err := scheme.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(pub.Bytes()) != z.RoleKey {
		t.Errorf("role key is %d bytes, SimSizes.RoleKey = %d", len(pub.Bytes()), z.RoleKey)
	}
	// Envelope overhead must hold for every payload length: postlen terms
	// of the form PostingKey + m·(PKEOverhead+X) assume a posting is its key
	// and then exactly PKEOverhead+len(msg) per envelope.
	var seal pke.Sealer
	posting, err := seal.AppendKey(nil, pub)
	if err != nil {
		t.Fatal(err)
	}
	if len(posting) != z.PostingKey {
		t.Errorf("posting key is %d bytes, SimSizes.PostingKey = %d", len(posting), z.PostingKey)
	}
	for part, msgLen := range []int{0, 1, z.SubShare(0), z.Ciphertext} {
		before := len(posting)
		if posting, err = seal.AppendEncrypt(posting, part, pub, make([]byte, msgLen)); err != nil {
			t.Fatal(err)
		}
		if got := len(posting) - before; got != z.PKEOverhead+msgLen {
			t.Errorf("envelope for %d-byte message is %d bytes, want PKEOverhead+len = %d",
				msgLen, got, z.PKEOverhead+msgLen)
		}
	}

	if z.Proof != nizk.AttestedProofSize {
		t.Errorf("SimSizes.Proof = %d, nizk.AttestedProofSize = %d", z.Proof, nizk.AttestedProofSize)
	}
	if z.Element != field.ElementSize {
		t.Errorf("SimSizes.Element = %d, field.ElementSize = %d", z.Element, field.ElementSize)
	}
}
