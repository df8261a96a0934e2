package pke

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"slices"

	"yosompc/internal/wire"
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

// simHeaderSize is the u64 key id plus the u32 message length.
const simHeaderSize = 8 + 4

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
func (p *simPub) Encrypt(msg []byte) ([]byte, error) { return p.AppendEncrypt(nil, msg) }

// AppendEncrypt implements PublicKey: header, message, and zero padding up
// to the modelled ECIES size so measured bytes match modelled bytes.
func (p *simPub) AppendEncrypt(dst, msg []byte) ([]byte, error) {
	dst = slices.Grow(dst, EnvelopeOverhead+len(msg))
	dst = binary.BigEndian.AppendUint64(dst, p.id)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg)))
	dst = append(dst, msg...)
	var pad [EnvelopeOverhead - simHeaderSize]byte
	return append(dst, pad[:]...), nil
}

// Bytes implements PublicKey.
func (p *simPub) Bytes() []byte {
	out := make([]byte, PublicKeySize)
	binary.BigEndian.PutUint64(out, p.id)
	return out
}

// Fingerprint implements PublicKey.
func (p *simPub) Fingerprint() string { return fmt.Sprintf("sim-%012x", p.id) }

// Decrypt implements SecretKey. It insists on the exact padded length, so
// sealing and opening agree on every byte, and enforces that only the
// matching key opens the envelope, so key-routing bugs in the protocol fail
// loudly.
func (k *simSecret) Decrypt(env []byte) ([]byte, error) {
	if len(env) < EnvelopeOverhead {
		return nil, fmt.Errorf("%w: envelope needs ≥ %d bytes, have %d", ErrShortData, EnvelopeOverhead, len(env))
	}
	msgLen := binary.BigEndian.Uint32(env[8:])
	if msgLen > wire.MaxLen || int(msgLen) != len(env)-EnvelopeOverhead {
		return nil, fmt.Errorf("%w: message length %d in a %d-byte envelope", ErrShortData, msgLen, len(env))
	}
	if keyID := binary.BigEndian.Uint64(env); !ctEqualID(keyID, k.id) {
		return nil, fmt.Errorf("%w: envelope for key %012x, have %012x", ErrDecrypt, keyID, k.id)
	}
	return bytes.Clone(env[simHeaderSize : simHeaderSize+int(msgLen)]), nil
}

// Bytes implements SecretKey.
func (k *simSecret) Bytes() []byte {
	out := make([]byte, SecretKeySize)
	copy(out, k.seed[:])
	return out
}

// Public implements SecretKey.
func (k *simSecret) Public() PublicKey { return &simPub{id: k.id, seed: k.seed} }
