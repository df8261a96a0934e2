package pke

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// Sim is the ideal PKE backend: payloads are stored in the clear inside the
// envelope and only decryptable by the matching key id, while wire sizes
// follow the same overhead model as the real ECIES construction
// (32-byte ephemeral key + 12-byte nonce + 16-byte tag). It exists so that
// large-committee sweeps spend no time on curve arithmetic while measuring
// identical byte counts.
type Sim struct{}

// NewSim returns the ideal backend.
func NewSim() *Sim { return &Sim{} }

// Name implements Scheme.
func (s *Sim) Name() string { return "sim" }

type simPub struct {
	id   uint64
	seed [SecretKeySize]byte
}

type simSecret struct {
	id   uint64
	seed [SecretKeySize]byte
}

type simCT struct {
	keyID uint64
	msg   []byte
}

func (c *simCT) Size() int { return EnvelopeOverhead + len(c.msg) }

// GenerateKey implements Scheme. The "secret" is a random 32-byte seed; the
// key id is derived from it so that SecretKeyFromBytes can re-associate.
func (s *Sim) GenerateKey() (PublicKey, SecretKey, error) {
	var seed [SecretKeySize]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, nil, fmt.Errorf("pke: sim keygen: %w", err)
	}
	id := seedID(seed)
	return &simPub{id: id, seed: seed}, &simSecret{id: id, seed: seed}, nil
}

// SecretKeyFromBytes implements Scheme.
func (s *Sim) SecretKeyFromBytes(data []byte) (SecretKey, error) {
	if len(data) != SecretKeySize {
		return nil, fmt.Errorf("pke: secret key must be %d bytes, got %d", SecretKeySize, len(data))
	}
	var seed [SecretKeySize]byte
	copy(seed[:], data)
	return &simSecret{id: seedID(seed), seed: seed}, nil
}

func seedID(seed [SecretKeySize]byte) uint64 {
	sum := sha256.Sum256(seed[:])
	return binary.BigEndian.Uint64(sum[:8])
}

// ctEqualID compares two key ids in constant time. The id is derived from
// the secret seed, so an early-exit comparison would let an attacker
// probing Decrypt with crafted envelopes learn matching prefixes of the
// derived key material byte by byte.
func ctEqualID(a, b uint64) bool {
	var ab, bb [8]byte
	binary.BigEndian.PutUint64(ab[:], a)
	binary.BigEndian.PutUint64(bb[:], b)
	return subtle.ConstantTimeCompare(ab[:], bb[:]) == 1
}

// Encrypt implements PublicKey.
func (p *simPub) Encrypt(msg []byte) (Ciphertext, error) {
	cp := make([]byte, len(msg))
	copy(cp, msg)
	return &simCT{keyID: p.id, msg: cp}, nil
}

// Bytes implements PublicKey.
func (p *simPub) Bytes() []byte {
	out := make([]byte, 32)
	binary.BigEndian.PutUint64(out, p.id)
	return out
}

// Fingerprint implements PublicKey.
func (p *simPub) Fingerprint() string { return fmt.Sprintf("sim-%012x", p.id) }

// Decrypt implements SecretKey; it enforces that only the matching key
// opens the envelope, so key-routing bugs in the protocol fail loudly.
func (k *simSecret) Decrypt(ct Ciphertext) ([]byte, error) {
	sc, ok := ct.(*simCT)
	if !ok {
		return nil, ErrWrongKey
	}
	if !ctEqualID(sc.keyID, k.id) {
		return nil, fmt.Errorf("%w: envelope for key %012x, have %012x", ErrDecrypt, sc.keyID, k.id)
	}
	out := make([]byte, len(sc.msg))
	copy(out, sc.msg)
	return out, nil
}

// Bytes implements SecretKey.
func (k *simSecret) Bytes() []byte {
	out := make([]byte, SecretKeySize)
	copy(out, k.seed[:])
	return out
}

// Public implements SecretKey.
func (k *simSecret) Public() PublicKey { return &simPub{id: k.id, seed: k.seed} }
