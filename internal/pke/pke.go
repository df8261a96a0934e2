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
	"slices"
)

// SecretKeySize and PublicKeySize are the sizes of an encoded secret and
// public key in bytes, on both backends.
const (
	SecretKeySize = 32
	PublicKeySize = 32
)

// An envelope is its wire bytes: sealing writes them, opening parses them,
// and nothing in between holds an envelope object. Both backends produce
// exactly EnvelopeOverhead + len(msg) bytes, so metered board traffic equals
// sealed traffic. Layouts (big-endian, see docs/WIRE.md):
//
//	ecies-x25519: 32-byte ephemeral X25519 key | 12-byte nonce | AES-GCM body‖tag
//	sim:          u64 key id | u32 msg len | msg | zero pad to 60+len(msg)
//
// The sim header (12 bytes) always fits inside the modelled 60-byte ECIES
// overhead, so the padded envelope is byte-for-byte the modelled size.

// EnvelopeOverhead is what sealing adds to a message, in bytes: a 32-byte
// ephemeral X25519 key, a 12-byte GCM nonce and a 16-byte GCM tag. Sim
// envelopes are padded to the same size, so it holds for both backends.
const EnvelopeOverhead = ephemeralSize + nonceSize + tagSize

const (
	ephemeralSize = 32
	nonceSize     = 12
	tagSize       = 16
)

// Errors returned by the backends.
var (
	ErrDecrypt   = errors.New("pke: decryption failed")
	ErrShortData = errors.New("pke: malformed ciphertext")
)

// PublicKey is an encryption key.
type PublicKey interface {
	// Encrypt seals msg into a fresh envelope of EnvelopeOverhead +
	// len(msg) bytes: AppendEncrypt(nil, msg).
	Encrypt(msg []byte) ([]byte, error)
	// AppendEncrypt appends the envelope sealing msg to dst and returns
	// the extended slice, writing the envelope in place — a poster seals
	// straight into its posting. On error dst is returned unchanged. msg
	// must not overlap dst's spare capacity.
	AppendEncrypt(dst, msg []byte) ([]byte, error)
	// Bytes returns the serialized public key.
	Bytes() []byte
	// Fingerprint returns a short stable identifier for logging/auditing.
	Fingerprint() string
}

// SecretKey is a decryption key.
type SecretKey interface {
	// Decrypt opens an encoded envelope. env is untrusted board bytes: it
	// is validated, never modified, and the plaintext is a fresh buffer
	// the caller owns (and wipes).
	Decrypt(env []byte) ([]byte, error)
	// Bytes returns the fixed-size secret encoding (SecretKeySize bytes),
	// suitable for encryption under the threshold key.
	Bytes() []byte
	// Public returns the matching public key.
	Public() PublicKey
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

// Encrypt implements PublicKey.
func (p *eciesPub) Encrypt(msg []byte) ([]byte, error) { return p.AppendEncrypt(nil, msg) }

// AppendEncrypt implements PublicKey: ECDH with an ephemeral key, key
// derivation via SHA-256 over the shared secret and both public keys,
// AES-256-GCM sealing in place behind the ephemeral key and the nonce.
func (p *eciesPub) AppendEncrypt(dst, msg []byte) ([]byte, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return dst, fmt.Errorf("pke: ephemeral key: %w", err)
	}
	shared, err := eph.ECDH(p.pk)
	if err != nil {
		return dst, fmt.Errorf("pke: ECDH: %w", err)
	}
	ephPub := eph.PublicKey().Bytes()
	aead, err := deriveAEAD(shared, ephPub, p.pk.Bytes())
	if err != nil {
		return dst, err
	}
	out := append(slices.Grow(dst, EnvelopeOverhead+len(msg)), ephPub...)
	nonce := out[len(out) : len(out)+nonceSize]
	if _, err := rand.Read(nonce); err != nil {
		return dst, fmt.Errorf("pke: nonce: %w", err)
	}
	return aead.Seal(out[:len(out)+nonceSize], nonce, msg, nil), nil
}

// Bytes implements PublicKey.
func (p *eciesPub) Bytes() []byte { return p.pk.Bytes() }

// Fingerprint implements PublicKey.
func (p *eciesPub) Fingerprint() string {
	sum := sha256.Sum256(p.pk.Bytes())
	return fmt.Sprintf("%x", sum[:6])
}

// Decrypt implements SecretKey: the envelope must hold at least the
// ephemeral key, the nonce and the tag, and GCM authenticates the rest.
func (s *eciesSecret) Decrypt(env []byte) ([]byte, error) {
	if len(env) < EnvelopeOverhead {
		return nil, fmt.Errorf("%w: envelope needs ≥ %d bytes, have %d", ErrShortData, EnvelopeOverhead, len(env))
	}
	ephemeral, nonce, body := env[:ephemeralSize], env[ephemeralSize:ephemeralSize+nonceSize], env[ephemeralSize+nonceSize:]
	ephPK, err := ecdh.X25519().NewPublicKey(ephemeral)
	if err != nil {
		return nil, fmt.Errorf("%w: bad ephemeral key", ErrDecrypt)
	}
	shared, err := s.sk.ECDH(ephPK)
	if err != nil {
		return nil, fmt.Errorf("%w: ECDH", ErrDecrypt)
	}
	aead, err := deriveAEAD(shared, ephemeral, s.sk.PublicKey().Bytes())
	if err != nil {
		return nil, err
	}
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
