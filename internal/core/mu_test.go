package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"yosompc/internal/field"
	"yosompc/internal/postlen"
)

// FuzzMuDecode: decodeMu is how every reader learns posted μ's, and what it
// reads is a poster's untrusted bytes. A μ posting decodes to its values;
// a posting of any length other than 8·count, or holding an element ≥ p, is
// refused, and nothing panics.
func FuzzMuDecode(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add(make([]byte, 16), 2)
	f.Add(make([]byte, 16), 3)
	f.Add(make([]byte, 7), 1)
	f.Add(binary.BigEndian.AppendUint64(nil, field.Modulus), 1)
	f.Add(binary.BigEndian.AppendUint64(nil, field.Modulus-1), 1)
	// 8·count wraps to 0.
	f.Add([]byte{}, (math.MaxInt/field.ElementSize+1)*2)
	f.Add(make([]byte, 8), -1)
	z := postlen.SimSizes(512)
	f.Fuzz(func(t *testing.T, wire []byte, count int) {
		// Encode followed by decode round-trips, for the elements the
		// wire's 8-byte words reduce to.
		vals := make([]field.Element, len(wire)/field.ElementSize)
		for i := range vals {
			vals[i] = field.New(binary.BigEndian.Uint64(wire[i*field.ElementSize:]))
		}
		back, err := decodeMu(z, muPosting(z, vals), len(vals))
		if err != nil || !field.EqualVec(back, vals) {
			t.Fatalf("Encode then decode of %v gave %v, %v", vals, back, err)
		}

		// The raw wire decodes exactly when it is count canonical words.
		got, err := decodeMu(z, wire, count)
		canonical := len(wire)%field.ElementSize == 0 && len(wire)/field.ElementSize == count
		for i := 0; canonical && i < count; i++ {
			canonical = binary.BigEndian.Uint64(wire[i*field.ElementSize:]) < field.Modulus
		}
		switch {
		case canonical && err != nil:
			t.Fatalf("%d canonical elements refused: %v", count, err)
		case !canonical && err == nil:
			t.Fatalf("%d bytes accepted as %d elements", len(wire), count)
		case canonical:
			if re := muPosting(z, got); !bytes.Equal(re, wire) {
				t.Fatalf("decoded %x re-encodes to %x", wire, re)
			}
		}
	})
}
