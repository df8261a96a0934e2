package core

import (
	"crypto/sha256"
	"fmt"
	"math/big"

	"yosompc/internal/comm"
	"yosompc/internal/pke"
	"yosompc/internal/yoso"
)

// kffSecretBound bounds the integer encoding of a KFF secret key
// (pke.SecretKeySize = 32 bytes).
var kffSecretBound = new(big.Int).Lsh(big.NewInt(1), 8*pke.SecretKeySize)

// setup executes Π_YOSO-Setup (paper §5.1):
//
//  1. generate keys-for-future for every role of every online mul-layer
//     committee whose packed shares take more than one group
//     (slotpack.Lists.NeedsKFF), publishing the public halves and TEnc'ing
//     the secret halves under tpk (clients are known parties with setup keys
//     of their own, and a role whose shares fit one group gets that group
//     from OnC1 directly, so neither needs one);
//  2. publish the NIZK CRS (the attestation authority stands in for it);
//  3. run TKGen; the epoch-0 shares are handed to the first tsk-holding
//     offline committee when the offline phase forms it.
func (r *run) setup() error {
	p := r.p.params
	te := p.TE

	// TKGen.
	tpk, shares, err := te.KeyGen(p.N, p.T)
	if err != nil {
		return fmt.Errorf("TKGen: %w", err)
	}
	r.rt.SetKey(tpk)
	r.dealt = shares
	// Publishing tpk: the public key's real board announcement bytes.
	tpkEnc, err := te.EncodePublicKey(tpk)
	if err != nil {
		return fmt.Errorf("encoding tpk announcement: %w", err)
	}
	r.p.board.Post("setup", comm.PhaseSetup, comm.CatCRS, tpkEnc)

	// NIZK CRS: the authority key takes the place of the Groth–Maller crs;
	// a 32-byte digest of the label stands in for the crs bytes.
	crs := sha256.Sum256([]byte("nizkaok-crs"))
	r.p.board.Post("setup", comm.PhaseSetup, comm.CatCRS, crs[:])

	// Known parties (clients). They are long-lived machines: their single
	// *input-role* broadcast is still enforced, but their keys survive to
	// receive outputs.
	r.clients = map[int]*yoso.Role{}
	for _, id := range r.p.circ.Clients() {
		role, err := r.assign.NewKnownParty("client", id, comm.PhaseSetup)
		if err != nil {
			return err
		}
		r.clients[id] = role
	}

	r.initWireState()

	// Keys for future: one per role of an online mul-layer whose shares
	// take more than one group, as its key is unknown until the online
	// phase forms the layer. A client's key is posted above, so OffDec seals
	// its λ's to that key directly.
	r.kff = make([][]kffEntry, len(r.lists.Layers))
	for l := range r.kff {
		if r.lists.NeedsKFF(l, r.rt.Sizes.SlotBits) {
			if r.kff[l], err = r.mintKFFs(l + 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// mintKFFs mints one key-for-future per role of layer — publish pk,
// TEnc(tpk, sk) — posting in role order. The key pairs are generated first
// so that the TEncs, the only big-integer work in setup, run as one batch
// over the worker pool.
func (r *run) mintKFFs(layer int) ([]kffEntry, error) {
	p := r.p.params
	entries := make([]kffEntry, p.N)
	secrets := make([]*big.Int, p.N)
	for i := range entries {
		pub, sec, err := p.PKE.GenerateKey()
		if err != nil {
			return nil, fmt.Errorf("KFF keygen for on-layer%d/%d: %w", layer, i+1, err)
		}
		skBytes := sec.Bytes()
		secrets[i] = new(big.Int).SetBytes(skBytes)
		clear(skBytes)
		entries[i].pub = pub
	}
	cts, err := p.TE.EncryptMany(r.rt.TPK, secrets, kffSecretBound, r.rt.Workers)
	clear(secrets)
	if err != nil {
		return nil, fmt.Errorf("TEnc of KFF secrets: %w", err)
	}
	width := []int{kffSecretBound.BitLen()}
	for i := range entries {
		entries[i].secret = []group{{ct: cts[i], widths: width}}
		enc, err := p.TE.AppendCiphertext(entries[i].pub.Bytes(), cts[i])
		if err != nil {
			return nil, fmt.Errorf("encoding KFF ciphertext for on-layer%d/%d: %w", layer, i+1, err)
		}
		r.p.board.Post("setup", comm.PhaseSetup, comm.CatKFF, enc)
	}
	return entries, nil
}
