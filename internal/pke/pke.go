// Package pke implements the public-key encryption used for role keys and
// keys-for-future (KFF): an ECIES construction over X25519 with AES-256-GCM
// payload encryption (all from the standard library), plus an ideal Sim
// backend with modelled sizes for large-scale communication sweeps.
//
// A KFF secret key must itself fit inside a threshold-encryption plaintext
// (it is encrypted under tpk during setup and re-encrypted to the role's
// real key during the online phase); X25519 secrets are 32 bytes, which is
// why ECIES rather than a second Paillier family is used here.
package pke

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

// SecretKeySize is the size of an encoded secret key in bytes.
const SecretKeySize = 32

// EnvelopeOverhead is what sealing adds to a message, in bytes: a 32-byte
// ephemeral X25519 key, a 12-byte GCM nonce and a 16-byte GCM tag. Sim
// envelopes are padded to the same size, so it holds for both backends.
const EnvelopeOverhead = 32 + 12 + 16

// Errors returned by the backends.
var (
	ErrDecrypt   = errors.New("pke: decryption failed")
	ErrWrongKey  = errors.New("pke: object belongs to a different backend")
	ErrShortData = errors.New("pke: malformed ciphertext")
)

// PublicKey is an encryption key.
type PublicKey interface {
	// Encrypt produces an envelope carrying msg.
	Encrypt(msg []byte) (Ciphertext, error)
	// Bytes returns the serialized public key.
	Bytes() []byte
	// Fingerprint returns a short stable identifier for logging/auditing.
	Fingerprint() string
}

// SecretKey is a decryption key.
type SecretKey interface {
	// Decrypt opens an envelope.
	Decrypt(ct Ciphertext) ([]byte, error)
	// Bytes returns the fixed-size secret encoding (SecretKeySize bytes),
	// suitable for encryption under the threshold key.
	Bytes() []byte
	// Public returns the matching public key.
	Public() PublicKey
}

// Ciphertext is a sealed envelope.
type Ciphertext interface {
	// Size returns the wire size in bytes.
	Size() int
}

// Scheme generates and rehydrates keys.
type Scheme interface {
	// Name identifies the backend ("ecies-x25519" or "sim").
	Name() string
	// GenerateKey mints a fresh keypair.
	GenerateKey() (PublicKey, SecretKey, error)
	// SecretKeyFromBytes reconstructs a secret key from its encoding —
	// the receiving role's step after a KFF hand-off.
	SecretKeyFromBytes(data []byte) (SecretKey, error)
	// EncodeCiphertext serializes an envelope; the encoding is exactly
	// Ciphertext.Size() bytes (docs/WIRE.md).
	EncodeCiphertext(ct Ciphertext) ([]byte, error)
	// DecodeCiphertext parses an envelope serialized by EncodeCiphertext.
	DecodeCiphertext(data []byte) (Ciphertext, error)
}

// ECIES is the real backend.
type ECIES struct{}

// NewECIES returns the real backend.
func NewECIES() *ECIES { return &ECIES{} }

// Name implements Scheme.
func (e *ECIES) Name() string { return "ecies-x25519" }

type eciesPub struct {
	pk *ecdh.PublicKey
}

type eciesSecret struct {
	sk *ecdh.PrivateKey
}

type eciesCT struct {
	ephemeral []byte // 32-byte ephemeral public key
	sealed    []byte // nonce || AES-GCM ciphertext+tag
}

func (c *eciesCT) Size() int { return len(c.ephemeral) + len(c.sealed) }

// GenerateKey implements Scheme.
func (e *ECIES) GenerateKey() (PublicKey, SecretKey, error) {
	sk, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("pke: generating key: %w", err)
	}
	return &eciesPub{pk: sk.PublicKey()}, &eciesSecret{sk: sk}, nil
}

// SecretKeyFromBytes implements Scheme.
func (e *ECIES) SecretKeyFromBytes(data []byte) (SecretKey, error) {
	if len(data) != SecretKeySize {
		return nil, fmt.Errorf("pke: secret key must be %d bytes, got %d", SecretKeySize, len(data))
	}
	sk, err := ecdh.X25519().NewPrivateKey(data)
	if err != nil {
		return nil, fmt.Errorf("pke: rebuilding secret key: %w", err)
	}
	return &eciesSecret{sk: sk}, nil
}

// Encrypt implements PublicKey: ECDH with an ephemeral key, key derivation
// via SHA-256 over the shared secret and both public keys, AES-256-GCM.
func (p *eciesPub) Encrypt(msg []byte) (Ciphertext, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pke: ephemeral key: %w", err)
	}
	shared, err := eph.ECDH(p.pk)
	if err != nil {
		return nil, fmt.Errorf("pke: ECDH: %w", err)
	}
	aead, err := deriveAEAD(shared, eph.PublicKey().Bytes(), p.pk.Bytes())
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("pke: nonce: %w", err)
	}
	sealed := aead.Seal(nonce, nonce, msg, nil)
	return &eciesCT{ephemeral: eph.PublicKey().Bytes(), sealed: sealed}, nil
}

// Bytes implements PublicKey.
func (p *eciesPub) Bytes() []byte { return p.pk.Bytes() }

// Fingerprint implements PublicKey.
func (p *eciesPub) Fingerprint() string {
	sum := sha256.Sum256(p.pk.Bytes())
	return fmt.Sprintf("%x", sum[:6])
}

// Decrypt implements SecretKey.
func (s *eciesSecret) Decrypt(ct Ciphertext) ([]byte, error) {
	ec, ok := ct.(*eciesCT)
	if !ok {
		return nil, ErrWrongKey
	}
	ephPK, err := ecdh.X25519().NewPublicKey(ec.ephemeral)
	if err != nil {
		return nil, fmt.Errorf("%w: bad ephemeral key", ErrDecrypt)
	}
	shared, err := s.sk.ECDH(ephPK)
	if err != nil {
		return nil, fmt.Errorf("%w: ECDH", ErrDecrypt)
	}
	aead, err := deriveAEAD(shared, ec.ephemeral, s.sk.PublicKey().Bytes())
	if err != nil {
		return nil, err
	}
	if len(ec.sealed) < aead.NonceSize() {
		return nil, ErrShortData
	}
	nonce, body := ec.sealed[:aead.NonceSize()], ec.sealed[aead.NonceSize():]
	msg, err := aead.Open(nil, nonce, body, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecrypt, err)
	}
	return msg, nil
}

// Bytes implements SecretKey.
func (s *eciesSecret) Bytes() []byte { return s.sk.Bytes() }

// Public implements SecretKey.
func (s *eciesSecret) Public() PublicKey { return &eciesPub{pk: s.sk.PublicKey()} }

func deriveAEAD(shared, ephPub, recvPub []byte) (cipher.AEAD, error) {
	h := sha256.New()
	h.Write([]byte("yosompc/ecies/v1"))
	h.Write(shared)
	h.Write(ephPub)
	h.Write(recvPub)
	key := h.Sum(nil)
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("pke: AES: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("pke: GCM: %w", err)
	}
	return aead, nil
}

var (
	_ Scheme = (*ECIES)(nil)
	_ Scheme = (*Sim)(nil)
)
