package pke

import (
	"encoding/binary"
	"fmt"

	"yosompc/internal/wire"
)

// Envelope wire format. An encoded envelope is exactly Ciphertext.Size()
// bytes for both backends, so metered board traffic equals serialized
// traffic. Layouts (big-endian, see docs/WIRE.md):
//
//	ecies-x25519: 32-byte ephemeral X25519 key | nonce‖AES-GCM body‖tag
//	sim:          u64 key id | u32 msg len | msg | zero pad to 60+len(msg)
//
// The sim header (12 bytes) always fits inside the modelled 60-byte ECIES
// overhead, so the padded encoding is byte-for-byte the modelled size.

// EncodeCiphertext implements Scheme.
func (e *ECIES) EncodeCiphertext(ct Ciphertext) ([]byte, error) {
	ec, ok := ct.(*eciesCT)
	if !ok {
		return nil, ErrWrongKey
	}
	out := make([]byte, 0, ec.Size())
	out = append(out, ec.ephemeral...)
	return append(out, ec.sealed...), nil
}

// DecodeCiphertext implements Scheme.
func (e *ECIES) DecodeCiphertext(data []byte) (Ciphertext, error) {
	if len(data) < EnvelopeOverhead {
		return nil, fmt.Errorf("%w: envelope needs ≥ %d bytes, have %d", ErrShortData, EnvelopeOverhead, len(data))
	}
	ct := &eciesCT{ephemeral: make([]byte, 32), sealed: make([]byte, len(data)-32)}
	copy(ct.ephemeral, data[:32])
	copy(ct.sealed, data[32:])
	return ct, nil
}

// EncodeCiphertext implements Scheme: the envelope is padded to the
// modelled ECIES size so measured bytes match modelled bytes.
func (s *Sim) EncodeCiphertext(ct Ciphertext) ([]byte, error) {
	sc, ok := ct.(*simCT)
	if !ok {
		return nil, ErrWrongKey
	}
	out := make([]byte, sc.Size())
	binary.BigEndian.PutUint64(out, sc.keyID)
	binary.BigEndian.PutUint32(out[8:], uint32(len(sc.msg)))
	copy(out[12:], sc.msg)
	return out, nil
}

// DecodeCiphertext implements Scheme; it insists on the exact padded length
// so encode∘decode is the identity on bytes.
func (s *Sim) DecodeCiphertext(data []byte) (Ciphertext, error) {
	if len(data) < EnvelopeOverhead {
		return nil, fmt.Errorf("%w: envelope needs ≥ %d bytes, have %d", ErrShortData, EnvelopeOverhead, len(data))
	}
	msgLen := binary.BigEndian.Uint32(data[8:])
	if msgLen > wire.MaxLen || int(msgLen) != len(data)-EnvelopeOverhead {
		return nil, fmt.Errorf("%w: message length %d in a %d-byte envelope", ErrShortData, msgLen, len(data))
	}
	ct := &simCT{keyID: binary.BigEndian.Uint64(data), msg: make([]byte, msgLen)}
	copy(ct.msg, data[12:12+msgLen])
	return ct, nil
}
