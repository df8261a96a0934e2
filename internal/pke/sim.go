package pke

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"slices"

	"yosompc/internal/wire"
)

// Sim is the ideal PKE backend: payloads are stored in the clear inside the
// envelope and only decryptable by the matching key id, at the part index
// and under the posting key they were sealed with, while wire sizes follow
// the real ECIES construction exactly (a 32-byte posting key per posting, a
// 16-byte header where ECIES has its tag). It exists so that
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

// simHeaderSize is the u64 key id, the u32 message length and the u32
// binding: exactly the ECIES envelope overhead.
const simHeaderSize = 8 + 4 + 4

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
func (p *simPub) Encrypt(msg []byte) ([]byte, error) { return encryptPosting(p, msg) }

// drawKey implements PublicKey: a Sim posting key is random bytes, which
// only the binding reads.
func (p *simPub) drawKey(s *Sealer) error {
	key := make([]byte, PostingKeySize)
	if _, err := rand.Read(key); err != nil {
		return fmt.Errorf("pke: sim posting key: %w", err)
	}
	s.key = key
	return nil
}

// seal implements PublicKey: the header, then the message, exactly the
// ECIES envelope's size.
func (p *simPub) seal(s *Sealer, dst []byte, part int, msg []byte) ([]byte, error) {
	dst = slices.Grow(dst, EnvelopeOverhead+len(msg))
	dst = binary.BigEndian.AppendUint64(dst, p.id)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg)))
	dst = binary.BigEndian.AppendUint32(dst, simBinding(s.key, part))
	return append(dst, msg...), nil
}

// simBinding folds a posting key and a part index into the 32 bits a Sim
// envelope carries, so that it opens only where it was sealed.
func simBinding(key []byte, part int) uint32 {
	b := uint32(part) ^ uint32(uint64(part)>>32)
	for i := 0; i+4 <= len(key); i += 4 {
		b ^= binary.BigEndian.Uint32(key[i:])
	}
	return b
}

// Bytes implements PublicKey.
func (p *simPub) Bytes() []byte {
	out := make([]byte, PublicKeySize)
	binary.BigEndian.PutUint64(out, p.id)
	return out
}

// Fingerprint implements PublicKey.
func (p *simPub) Fingerprint() string { return fmt.Sprintf("sim-%012x", p.id) }

// Decrypt implements SecretKey.
func (k *simSecret) Decrypt(posting []byte) ([]byte, error) {
	key, env, err := splitPosting(posting)
	if err != nil {
		return nil, err
	}
	return k.AppendOpen(nil, key, 0, env)
}

// AppendOpen implements SecretKey. It insists on the exact length, so
// sealing and opening agree on every byte, and enforces that only the
// matching key opens the envelope, at its own part under its own posting
// key, so key-routing and layout bugs in the protocol fail loudly. The
// message is appended to dst: nothing else is allocated.
func (k *simSecret) AppendOpen(dst, key []byte, part int, env []byte) ([]byte, error) {
	if err := checkLengths(key, env); err != nil {
		return dst, err
	}
	msgLen := binary.BigEndian.Uint32(env[8:])
	if msgLen > wire.MaxLen || int(msgLen) != len(env)-EnvelopeOverhead {
		return dst, fmt.Errorf("%w: message length %d in a %d-byte envelope", ErrShortData, msgLen, len(env))
	}
	if keyID := binary.BigEndian.Uint64(env); !ctEqualID(keyID, k.id) {
		return dst, fmt.Errorf("%w: envelope for key %012x, have %012x", ErrDecrypt, keyID, k.id)
	}
	if binary.BigEndian.Uint32(env[12:]) != simBinding(key, part) {
		return dst, fmt.Errorf("%w: envelope sealed at another part or under another posting key", ErrDecrypt)
	}
	return append(dst, env[simHeaderSize:]...), nil
}

// Bytes implements SecretKey.
func (k *simSecret) Bytes() []byte {
	out := make([]byte, SecretKeySize)
	copy(out, k.seed[:])
	return out
}

// Public implements SecretKey.
func (k *simSecret) Public() PublicKey { return &simPub{id: k.id, seed: k.seed} }
