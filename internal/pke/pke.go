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
	// len(msg) bytes under an ephemeral key of its own: a one-envelope
	// Sealer.
	Encrypt(msg []byte) ([]byte, error)
	// Bytes returns the serialized public key.
	Bytes() []byte
	// Fingerprint returns a short stable identifier for logging/auditing.
	Fingerprint() string
	// seal is the backend's one sealing implementation, which every
	// envelope goes through (Sealer.AppendEncrypt).
	seal(s *Sealer, dst, msg []byte) ([]byte, error)
}

// A Sealer seals the envelopes of one posting. On ECIES its first seal
// draws one ephemeral X25519 key and every later envelope reuses it, so an
// envelope costs one key agreement with its recipient instead of two: the
// multi-recipient KEM of Smart (SCN 2004), whose reuse of the randomness
// Bellare, Boldyreva, Kurosawa and Staddon prove secure even against
// insider recipients (DESIGN.md). Each envelope keeps its own random nonce,
// because two envelopes to one recipient share an AES-GCM key. On Sim a
// Sealer writes what every Sim envelope is. The layout and the length of
// an envelope do not depend on the Sealer.
//
// The zero Sealer is ready to use. It belongs to one posting and one
// goroutine: a poster declares it where it writes the posting, and the
// ephemeral key goes when the Sealer does.
type Sealer struct {
	eph    *ecdh.PrivateKey
	ephPub []byte
}

// AppendEncrypt appends the envelope sealing msg to the holder of to's
// secret key to dst and returns the extended slice, writing the envelope in
// place — a poster seals straight into its posting. On error dst is
// returned unchanged. msg must not overlap dst's spare capacity.
func (s *Sealer) AppendEncrypt(dst []byte, to PublicKey, msg []byte) ([]byte, error) {
	return to.seal(s, dst, msg)
}

// SecretKey is a decryption key.
type SecretKey interface {
	// AppendDecrypt opens an encoded envelope and appends the plaintext to
	// dst, returning the extended slice; on error dst is returned
	// unchanged. env is untrusted board bytes: it is validated and never
	// modified, and it must not overlap dst's spare capacity. The plaintext
	// is written into dst's capacity when that suffices, so a reader opens
	// every envelope of one quorum walk into one scratch, which it wipes
	// after each decode and over its whole capacity when the walk ends, so
	// no byte an open wrote outlives the walk.
	AppendDecrypt(dst, env []byte) ([]byte, error)
	// Decrypt is AppendDecrypt(nil, env): the plaintext is a fresh buffer
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
func (p *eciesPub) Encrypt(msg []byte) ([]byte, error) { return new(Sealer).AppendEncrypt(nil, p, msg) }

// seal implements PublicKey: ECDH between the Sealer's ephemeral key (drawn
// on its first envelope) and p, key derivation via SHA-256 over the shared
// secret and both public keys, AES-256-GCM sealing in place behind the
// ephemeral key and a fresh nonce.
func (p *eciesPub) seal(s *Sealer, dst, msg []byte) ([]byte, error) {
	if s.eph == nil {
		// The scalar is drawn here rather than by GenerateKey, which would
		// leave an unwiped copy of it behind.
		var scalar [SecretKeySize]byte
		if _, err := rand.Read(scalar[:]); err != nil {
			return dst, fmt.Errorf("pke: ephemeral key: %w", err)
		}
		eph, err := ecdh.X25519().NewPrivateKey(scalar[:])
		clear(scalar[:])
		if err != nil {
			return dst, fmt.Errorf("pke: ephemeral key: %w", err)
		}
		s.eph, s.ephPub = eph, eph.PublicKey().Bytes()
	}
	shared, err := s.eph.ECDH(p.pk)
	if err != nil {
		return dst, fmt.Errorf("pke: ECDH: %w", err)
	}
	aead, err := deriveAEAD(shared, s.ephPub, p.pk.Bytes())
	clear(shared)
	if err != nil {
		return dst, err
	}
	out := append(slices.Grow(dst, EnvelopeOverhead+len(msg)), s.ephPub...)
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

// Decrypt implements SecretKey.
func (s *eciesSecret) Decrypt(env []byte) ([]byte, error) { return s.AppendDecrypt(nil, env) }

// AppendDecrypt implements SecretKey: the envelope must hold at least the
// ephemeral key, the nonce and the tag, and GCM authenticates the rest,
// opening it behind dst.
func (s *eciesSecret) AppendDecrypt(dst, env []byte) ([]byte, error) {
	if len(env) < EnvelopeOverhead {
		return dst, fmt.Errorf("%w: envelope needs ≥ %d bytes, have %d", ErrShortData, EnvelopeOverhead, len(env))
	}
	ephemeral, nonce, body := env[:ephemeralSize], env[ephemeralSize:ephemeralSize+nonceSize], env[ephemeralSize+nonceSize:]
	ephPK, err := ecdh.X25519().NewPublicKey(ephemeral)
	if err != nil {
		return dst, fmt.Errorf("%w: bad ephemeral key", ErrDecrypt)
	}
	shared, err := s.sk.ECDH(ephPK)
	if err != nil {
		return dst, fmt.Errorf("%w: ECDH", ErrDecrypt)
	}
	aead, err := deriveAEAD(shared, ephemeral, s.sk.PublicKey().Bytes())
	clear(shared)
	if err != nil {
		return dst, err
	}
	out, err := aead.Open(dst, nonce, body, nil)
	if err != nil {
		return dst, fmt.Errorf("%w: %v", ErrDecrypt, err)
	}
	return out, nil
}

// Bytes implements SecretKey.
func (s *eciesSecret) Bytes() []byte { return s.sk.Bytes() }

// Public implements SecretKey.
func (s *eciesSecret) Public() PublicKey { return &eciesPub{pk: s.sk.PublicKey()} }

// kdfLabel separates this scheme's key derivation from any other use of
// SHA-256 over the same secrets.
const kdfLabel = "yosompc/ecies/v1"

// deriveAEAD keys AES-256-GCM for one envelope: SHA-256 over kdfLabel, the
// 32-byte shared secret and both 32-byte public keys. It wipes its copy of
// the secret and the derived key before it returns; the caller wipes
// shared. The cipher's expanded key schedule lives inside crypto/aes,
// where nothing can wipe it, and goes with the AEAD.
func deriveAEAD(shared, ephPub, recvPub []byte) (cipher.AEAD, error) {
	var in [len(kdfLabel) + 3*32]byte
	n := copy(in[:], kdfLabel)
	n += copy(in[n:], shared)
	n += copy(in[n:], ephPub)
	copy(in[n:], recvPub)
	key := sha256.Sum256(in[:])
	clear(in[:])
	block, err := aes.NewCipher(key[:])
	clear(key[:])
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
