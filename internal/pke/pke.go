// Package pke implements the public-key encryption used for role keys and
// keys-for-future (KFF): an ECIES construction over X25519 with AES-256-GCM
// payload encryption (all from the standard library), plus an ideal Sim
// backend with the same sizes for large-scale communication sweeps. A
// poster seals all the envelopes of one posting with one Sealer: the
// posting carries one posting key (on ECIES, one ephemeral X25519 key), and
// each envelope is its body and a 16-byte tag under the nonce of its part
// index.
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
	"encoding/binary"
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
// and nothing in between holds an envelope object. A posting that carries
// envelopes starts with its Sealer's PostingKeySize-byte posting key, and
// each envelope in it is then exactly EnvelopeOverhead + len(msg) bytes on
// both backends, so metered board traffic equals sealed traffic. An
// envelope is bound to its posting key and to its part index, the position
// it holds in the posting, which every reader takes from the step's public
// layout. Layouts (big-endian, see docs/WIRE.md):
//
//	posting key:  ecies-x25519: the ephemeral X25519 public key; sim: 32 random bytes
//	ecies-x25519: AES-GCM body‖tag, under the nonce u96(part)
//	sim:          u64 key id | u32 msg len | u32 binding | msg
//
// The sim binding folds the posting key and the part index into 32 bits, so
// an envelope read under another posting's key or at another part fails
// there as it would on ECIES.

// PostingKeySize is the size of the posting key a posting's envelopes are
// sealed under, which the posting carries once, ahead of its parts.
const PostingKeySize = 32

// EnvelopeOverhead is what sealing adds to a message inside a posting, in
// bytes: the 16-byte GCM tag. Sim envelopes carry their 16-byte header
// instead, so it holds for both backends. A one-envelope posting
// (PublicKey.Encrypt) is PostingKeySize + EnvelopeOverhead + len(msg).
const EnvelopeOverhead = 16

// nonceSize is GCM's standard nonce length; an envelope's nonce is its part
// index, big-endian (RFC 9180 §5.2's sequence-number nonce).
const nonceSize = 12

// Errors returned by the backends.
var (
	ErrDecrypt   = errors.New("pke: decryption failed")
	ErrShortData = errors.New("pke: malformed ciphertext")
)

// PublicKey is an encryption key.
type PublicKey interface {
	// Encrypt seals msg as a one-envelope posting of its own: a fresh
	// posting key followed by the envelope at part 0, PostingKeySize +
	// EnvelopeOverhead + len(msg) bytes in all.
	Encrypt(msg []byte) ([]byte, error)
	// Bytes returns the serialized public key.
	Bytes() []byte
	// Fingerprint returns a short stable identifier for logging/auditing.
	Fingerprint() string
	// drawKey gives a Sealer its backend's posting key, and seal is the
	// backend's one sealing implementation, which every envelope goes
	// through (Sealer.AppendEncrypt).
	drawKey(s *Sealer) error
	seal(s *Sealer, dst []byte, part int, msg []byte) ([]byte, error)
}

// A Sealer seals the envelopes of one posting. AppendKey draws the posting
// key and writes it ahead of the posting's parts; every envelope is then
// sealed under it at its own part index. On ECIES the posting key is one
// ephemeral X25519 key, so an envelope costs one key agreement with its
// recipient: the multi-recipient KEM of Smart (SCN 2004), whose reuse of
// the randomness Bellare, Boldyreva, Kurosawa and Staddon prove secure
// even against insider recipients (DESIGN.md). Two envelopes to one
// recipient share an AES-GCM key, so each takes its part index as its
// nonce, and a Sealer refuses a part that is not above the last one it
// sealed: no (key, nonce) pair repeats.
//
// The zero Sealer is ready to use. It belongs to one posting and one
// goroutine: a poster declares it where it writes the posting, and the
// ephemeral key goes when the Sealer does.
type Sealer struct {
	eph *ecdh.PrivateKey
	key []byte
	// next is the lowest part index the next envelope may take, and nonce
	// the last envelope's nonce, held here so that sealing allocates none.
	next  int
	nonce [nonceSize]byte
}

// AppendKey begins the posting: it draws the posting key and appends it to
// dst, returning the extended slice (dst unchanged on error). to is any
// recipient of the posting's envelopes; it selects the backend. A Sealer
// begins one posting only.
func (s *Sealer) AppendKey(dst []byte, to PublicKey) ([]byte, error) {
	if s.key != nil {
		return dst, errors.New("pke: a Sealer seals one posting")
	}
	if err := to.drawKey(s); err != nil {
		return dst, err
	}
	return append(dst, s.key...), nil
}

// AppendEncrypt appends the envelope sealing msg, as part part of the
// posting, to the holder of to's secret key to dst and returns the extended
// slice, writing the envelope in place — a poster seals straight into its
// posting. Parts must be sealed in increasing order, after AppendKey. On
// error dst is returned unchanged. msg must not overlap dst's spare
// capacity.
func (s *Sealer) AppendEncrypt(dst []byte, part int, to PublicKey, msg []byte) ([]byte, error) {
	if s.key == nil {
		return dst, errors.New("pke: sealing before the posting key is written")
	}
	if part < s.next {
		return dst, fmt.Errorf("pke: part %d sealed after part %d", part, s.next-1)
	}
	out, err := to.seal(s, dst, part, msg)
	if err == nil {
		s.next = part + 1
	}
	return out, err
}

// encryptPosting is PublicKey.Encrypt on either backend.
func encryptPosting(to PublicKey, msg []byte) ([]byte, error) {
	var s Sealer
	posting, err := s.AppendKey(make([]byte, 0, PostingKeySize+EnvelopeOverhead+len(msg)), to)
	if err != nil {
		return nil, err
	}
	return s.AppendEncrypt(posting, 0, to, msg)
}

// SecretKey is a decryption key.
type SecretKey interface {
	// AppendOpen opens env, sealed as part part of a posting whose posting
	// key is key, and appends the plaintext to dst, returning the extended
	// slice; on error dst is returned unchanged. key and env are untrusted
	// board bytes: they are validated and never modified, and they must not
	// overlap dst's spare capacity. part comes from the reader's public
	// layout, never from the bytes. The plaintext is written into dst's
	// capacity when that suffices, so a reader opens every envelope of one
	// quorum walk into one scratch, which it wipes after each decode and
	// over its whole capacity when the walk ends, so no byte an open wrote
	// outlives the walk.
	AppendOpen(dst, key []byte, part int, env []byte) ([]byte, error)
	// Decrypt opens a one-envelope posting (PublicKey.Encrypt's): the
	// plaintext is a fresh buffer the caller owns (and wipes).
	Decrypt(posting []byte) ([]byte, error)
	// Bytes returns the fixed-size secret encoding (SecretKeySize bytes),
	// suitable for encryption under the threshold key.
	Bytes() []byte
	// Public returns the matching public key.
	Public() PublicKey
}

// splitPosting cuts a one-envelope posting into its posting key and its
// envelope, for SecretKey.Decrypt on either backend.
func splitPosting(posting []byte) (key, env []byte, err error) {
	if len(posting) < PostingKeySize {
		return nil, nil, fmt.Errorf("%w: posting needs ≥ %d bytes, have %d", ErrShortData, PostingKeySize+EnvelopeOverhead, len(posting))
	}
	return posting[:PostingKeySize], posting[PostingKeySize:], nil
}

// checkLengths is what both backends require of any posting key and
// envelope before reading them.
func checkLengths(key, env []byte) error {
	if len(key) != PostingKeySize {
		return fmt.Errorf("%w: posting key must be %d bytes, have %d", ErrShortData, PostingKeySize, len(key))
	}
	if len(env) < EnvelopeOverhead {
		return fmt.Errorf("%w: envelope needs ≥ %d bytes, have %d", ErrShortData, EnvelopeOverhead, len(env))
	}
	return nil
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
func (p *eciesPub) Encrypt(msg []byte) ([]byte, error) { return encryptPosting(p, msg) }

// drawKey implements PublicKey: the posting key is a fresh ephemeral X25519
// key. The scalar is drawn here rather than by GenerateKey, which would
// leave an unwiped copy of it behind.
func (p *eciesPub) drawKey(s *Sealer) error {
	var scalar [SecretKeySize]byte
	if _, err := rand.Read(scalar[:]); err != nil {
		return fmt.Errorf("pke: ephemeral key: %w", err)
	}
	eph, err := ecdh.X25519().NewPrivateKey(scalar[:])
	clear(scalar[:])
	if err != nil {
		return fmt.Errorf("pke: ephemeral key: %w", err)
	}
	s.eph, s.key = eph, eph.PublicKey().Bytes()
	return nil
}

// seal implements PublicKey: ECDH between the Sealer's ephemeral key and p,
// key derivation via SHA-256 over the shared secret and both public keys,
// AES-256-GCM sealing in place under the part's nonce.
func (p *eciesPub) seal(s *Sealer, dst []byte, part int, msg []byte) ([]byte, error) {
	if s.eph == nil {
		return dst, errors.New("pke: the posting key is not an X25519 key")
	}
	shared, err := s.eph.ECDH(p.pk)
	if err != nil {
		return dst, fmt.Errorf("pke: ECDH: %w", err)
	}
	aead, err := deriveAEAD(shared, s.key, p.pk.Bytes())
	clear(shared)
	if err != nil {
		return dst, err
	}
	s.nonce = partNonce(part)
	return aead.Seal(slices.Grow(dst, EnvelopeOverhead+len(msg)), s.nonce[:], msg, nil), nil
}

// partNonce is the GCM nonce of the envelope at part index part.
func partNonce(part int) [nonceSize]byte {
	var nonce [nonceSize]byte
	binary.BigEndian.PutUint64(nonce[nonceSize-8:], uint64(part))
	return nonce
}

// Bytes implements PublicKey.
func (p *eciesPub) Bytes() []byte { return p.pk.Bytes() }

// Fingerprint implements PublicKey.
func (p *eciesPub) Fingerprint() string {
	sum := sha256.Sum256(p.pk.Bytes())
	return fmt.Sprintf("%x", sum[:6])
}

// Decrypt implements SecretKey.
func (s *eciesSecret) Decrypt(posting []byte) ([]byte, error) {
	key, env, err := splitPosting(posting)
	if err != nil {
		return nil, err
	}
	return s.AppendOpen(nil, key, 0, env)
}

// AppendOpen implements SecretKey: the posting key must be an X25519 key
// and the envelope hold at least the tag, and GCM authenticates the rest
// under the part's nonce, opening it behind dst.
func (s *eciesSecret) AppendOpen(dst, key []byte, part int, env []byte) ([]byte, error) {
	if err := checkLengths(key, env); err != nil {
		return dst, err
	}
	ephPK, err := ecdh.X25519().NewPublicKey(key)
	if err != nil {
		return dst, fmt.Errorf("%w: bad posting key", ErrDecrypt)
	}
	shared, err := s.sk.ECDH(ephPK)
	if err != nil {
		return dst, fmt.Errorf("%w: ECDH", ErrDecrypt)
	}
	aead, err := deriveAEAD(shared, key, s.sk.PublicKey().Bytes())
	clear(shared)
	if err != nil {
		return dst, err
	}
	nonce := partNonce(part)
	out, err := aead.Open(dst, nonce[:], env, nil)
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

// deriveAEAD keys AES-256-GCM for one (posting, recipient) pair: SHA-256 over kdfLabel, the
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
