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
//     committee and for every client, publishing the public halves and
//     TEnc'ing the secret halves under tpk;
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
	r.rt.TPK = tpk
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

	// Keys for future: one per online mul-layer role, one per client.
	depth := r.p.circ.Depth()
	var owners []string
	for l := 0; l < depth; l++ {
		for i := 0; i < p.N; i++ {
			owners = append(owners, fmt.Sprintf("on-layer%d/%d", l+1, i+1))
		}
	}
	var kffClients []int
	for _, id := range r.p.circ.Clients() {
		if r.p.circ.InputCount(id) == 0 {
			continue // only input-contributing parties get a KFF (§5.1)
		}
		kffClients = append(kffClients, id)
		owners = append(owners, fmt.Sprintf("client/%d", id))
	}
	entries, err := r.mintKFFs(owners)
	if err != nil {
		return err
	}
	r.kffLayer = make([][]kffEntry, depth)
	for l := range r.kffLayer {
		r.kffLayer[l] = entries[l*p.N : (l+1)*p.N]
	}
	r.kffClient = map[int]*kffEntry{}
	for j, id := range kffClients {
		r.kffClient[id] = &entries[depth*p.N+j]
	}

	r.initWireState()
	return nil
}

// mintKFFs mints one key-for-future per owner — publish pk, TEnc(tpk, sk)
// — posting in owner order. The key pairs are generated first so that the
// TEncs, the only big-integer work in setup, run as one batch over the
// worker pool.
func (r *run) mintKFFs(owners []string) ([]kffEntry, error) {
	p := r.p.params
	entries := make([]kffEntry, len(owners))
	secrets := make([]*big.Int, len(owners))
	for i, owner := range owners {
		pub, sec, err := p.PKE.GenerateKey()
		if err != nil {
			return nil, fmt.Errorf("KFF keygen for %s: %w", owner, err)
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
	for i, owner := range owners {
		entries[i].secretCt = cts[i]
		enc, err := p.TE.AppendCiphertext(entries[i].pub.Bytes(), cts[i])
		if err != nil {
			return nil, fmt.Errorf("encoding KFF ciphertext for %s: %w", owner, err)
		}
		r.p.board.Post("setup", comm.PhaseSetup, comm.CatKFF, enc)
	}
	return entries, nil
}
