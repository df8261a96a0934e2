package nizk

import "encoding"

// Proof wire format: the raw 192-byte constant-size blob, no framing — the
// enclosing message versions it. See docs/WIRE.md.

// EncodedSize returns the exact encoded length in bytes — constant for the
// attested-proof model.
func (p Proof) EncodedSize() int { return AttestedProofSize }

// MarshalBinary implements encoding.BinaryMarshaler.
func (p Proof) MarshalBinary() ([]byte, error) { return p.Bytes(), nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *Proof) UnmarshalBinary(data []byte) error {
	dec, err := ProofFromBytes(data)
	if err != nil {
		return err
	}
	*p = dec
	return nil
}

var (
	_ encoding.BinaryMarshaler   = Proof{}
	_ encoding.BinaryUnmarshaler = (*Proof)(nil)
)
