// Package postlen gives every posting's length as a pure function of public
// data, the backend's wire widths (Sizes) and what the posting carries by
// count (Posting): in YOSO what a role posts follows from the public
// schedule. The writers allocate that length, a malicious role posts that
// many zero bytes, the μ reader checks it and internal/costmodel sums it.
package postlen

import (
	"yosompc/internal/field"
	"yosompc/internal/nizk"
	"yosompc/internal/pke"
	"yosompc/internal/slotpack"
	"yosompc/internal/tte"
)

// Sizes are the wire sizes (bytes) of one backend configuration.
type Sizes struct {
	// Ciphertext is a threshold-encryption ciphertext (≈ |N²|).
	Ciphertext int
	// Partial is a partial decryption (≈ |N²|).
	Partial int
	// SubShare is a tsk resharing subshare.
	SubShare int
	// KeyShare is a tsk key share.
	KeyShare int
	// PostingKey is the posting key a posting that seals anything carries
	// once, and PKEOverhead what each envelope in it adds to its message.
	PostingKey  int
	PKEOverhead int
	// RoleKey is a published role public key.
	RoleKey int
	// Proof is one attested NIZK proof.
	Proof int
	// Element is one field element.
	Element int
	// SlotBits is how many plaintext bits one slot-packed opening holds
	// (slotpack.Capacity of the key).
	SlotBits int
}

// SimSizes returns the sizes of the ideal backends for a modelled
// threshold-Paillier modulus of the given bit length, matching
// tte.NewSim(bits) + pke.NewSim().
func SimSizes(bits int) Sizes {
	te := tte.NewSim(bits)
	return Sizes{
		Ciphertext:  te.CiphertextSize(),
		Partial:     te.PartialSize(),
		SubShare:    te.SubShareSize(),
		KeyShare:    te.KeyShareSize(),
		PostingKey:  pke.PostingKeySize,
		PKEOverhead: pke.EnvelopeOverhead,
		RoleKey:     pke.PublicKeySize,
		Proof:       nizk.AttestedProofSize,
		Element:     field.ElementSize,
		SlotBits:    slotpack.Capacity(te.MaxPlaintext()),
	}
}

// Of returns the sizes of a run under the threshold public key tpk. On the
// Sim backend they are exact. The real backend pads nothing: its partials,
// sub-shares and key shares carry their integers behind a length prefix,
// so there those three are the key's nominal widths, the ones Sim models
// for its modulus. The ciphertext, element, posting-key and envelope
// widths are exact on both.
func Of(tpk tte.PublicKey) Sizes {
	z := SimSizes(4 * tpk.CiphertextSize())
	z.SlotBits = slotpack.Capacity(tpk.MaxPlaintext())
	return z
}

// Posting counts what one posting carries.
type Posting struct {
	// Ciphertexts are threshold ciphertexts (a committee.CtBundle) and
	// Elements field elements (a μ bundle).
	Ciphertexts, Elements int
	// Partials are partial decryptions in the clear. Sealed partial
	// decryptions, SubShares (a tsk hand-off) and KeyShares (the dealer's
	// delivery) take an envelope each, and a posting that seals anything
	// starts with its posting key.
	Partials, Sealed, SubShares, KeyShares int
}

// Window is how many members of a tsk committee of n answer a Re-encrypt
// addressed to one role of a committee whose reconstruction needs quorum
// speakers: n − quorum + t + 1, so that the n − quorum absences such a
// committee tolerates still leave t + 1 answers. A quorum below t + 1 is
// t + 1, where every member answers. Each member answers s of any n roles,
// so what a tsk posting seals to a committee's roles is s/n of the whole.
func Window(n, t, quorum int) int { return n - max(quorum, t+1) + t + 1 }

// Len is the posting's length in bytes under z.
func (p Posting) Len(z Sizes) int {
	n := p.Ciphertexts*z.Ciphertext + p.Elements*z.Element + p.Partials*z.Partial +
		p.Sealed*(z.PKEOverhead+z.Partial) + p.SubShares*(z.PKEOverhead+z.SubShare) + p.KeyShares*(z.PKEOverhead+z.KeyShare)
	if p.Sealed+p.SubShares+p.KeyShares > 0 {
		n += z.PostingKey
	}
	return n
}
