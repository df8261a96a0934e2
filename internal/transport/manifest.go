package transport

import (
	"encoding"
	"fmt"

	"yosompc/internal/wire"
)

// Manifest is the expected-speaker record a committee former posts under
// comm.PhaseSystem / comm.CatManifest before the committee's members speak:
// the committee name, the phase its speeches belong to, how many speakers
// are expected, and the reconstruction quorum. Because roles are named
// "committee/index" with index 1..N, the speaker set is fully derived from
// the manifest — the monitor needs no in-process hook to know who is
// missing. Layout (big-endian, docs/WIRE.md):
//
//	u8 version | str8 committee | str8 phase | u32 n | u32 quorum
type Manifest struct {
	// Committee is the committee name ("offB1", "on-layer2", ...).
	Committee string
	// Phase is the protocol phase the committee's speeches are metered
	// under ("setup", "offline", "online").
	Phase string
	// N is the number of expected speakers; member i posts as
	// "Committee/i" for i in 1..N.
	N int
	// Quorum is the minimum number of posted speakers reconstruction
	// needs; N−Quorum is the tolerated fail-stop count (§5.4's 2(k−1)
	// margin in the packed protocol, t+1 in the baseline).
	Quorum int
}

// Speaker returns the role name of member i (1-based), the From string its
// board posts carry.
func (m Manifest) Speaker(i int) string {
	return fmt.Sprintf("%s/%d", m.Committee, i)
}

// EncodedSize returns the exact encoded length in bytes.
func (m Manifest) EncodedSize() int {
	return 1 + 1 + len(m.Committee) + 1 + len(m.Phase) + 4 + 4
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m Manifest) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, m.EncodedSize())
	out = append(out, wire.Version)
	out = wire.AppendString8(out, m.Committee)
	out = wire.AppendString8(out, m.Phase)
	out = wire.AppendUint32(out, uint32(m.N))
	return wire.AppendUint32(out, uint32(m.Quorum)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The encoding must
// consume the whole buffer.
func (m *Manifest) UnmarshalBinary(data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("%w: empty manifest", wire.ErrMalformed)
	}
	if data[0] != wire.Version {
		return fmt.Errorf("%w: manifest version %d, want %d", wire.ErrMalformed, data[0], wire.Version)
	}
	committee, rest, err := wire.String8(data[1:])
	if err != nil {
		return err
	}
	phase, rest, err := wire.String8(rest)
	if err != nil {
		return err
	}
	n, rest, err := wire.Uint32(rest)
	if err != nil {
		return err
	}
	quorum, rest, err := wire.Uint32(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after manifest", wire.ErrMalformed, len(rest))
	}
	*m = Manifest{Committee: committee, Phase: phase, N: int(n), Quorum: int(quorum)}
	return nil
}

var (
	_ encoding.BinaryMarshaler   = Manifest{}
	_ encoding.BinaryUnmarshaler = (*Manifest)(nil)
)
