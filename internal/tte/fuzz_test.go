package tte

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"yosompc/internal/paillier"
)

func bigOne() *big.Int { return big.NewInt(1) }

// FuzzDecode checks the wire decoders of both backends on arbitrary bytes:
// partials and sub-shares (envelope contents), ciphertexts and public-key
// announcements (board bytes) are all attacker-controlled. No decoder may
// panic; a ciphertext that decodes re-encodes to the same bytes, and a
// partial or sub-share that decodes survives a re-encode unchanged.
func FuzzDecode(f *testing.F) {
	real, err := NewThreshold(paillier.FixedTestKey(1))
	if err != nil {
		f.Fatal(err)
	}
	type backend interface {
		Scheme
		Codec
	}
	type keyed struct {
		s  backend
		pk PublicKey
	}
	var keys []keyed
	for _, s := range []backend{NewSim(512), real} {
		pk, shares, err := s.KeyGen(3, 1)
		if err != nil {
			f.Fatal(err)
		}
		keys = append(keys, keyed{s, pk})
		ct, err := s.Encrypt(pk, bigOne(), bigOne())
		if err != nil {
			f.Fatal(err)
		}
		p, err := s.PartialDecrypt(pk, shares[0], ct)
		if err != nil {
			f.Fatal(err)
		}
		subs, err := s.Reshare(pk, shares[0])
		if err != nil {
			f.Fatal(err)
		}
		partEnc, err1 := s.EncodePartial(p)
		subEnc, err2 := s.AppendSubShare(nil, subs[0])
		ctEnc, err3 := s.EncodeCiphertext(ct)
		pubEnc, err4 := s.EncodePublicKey(pk)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			f.Fatal(err)
		}
		for _, b := range [][]byte{partEnc, subEnc, ctEnc, pubEnc} {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _ = DecodePublicKeyInfo(data)
		for _, k := range keys {
			s, pk := k.s, k.pk
			if ct, err := s.DecodeCiphertext(pk, nil, data); err == nil {
				if got, err := s.EncodeCiphertext(ct); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s: ciphertext %x re-encodes to %x (%v)", s.Name(), data, got, err)
				}
			}
			if p, err := s.DecodePartial(pk, data); err == nil {
				enc, err := s.EncodePartial(p)
				if err != nil {
					t.Fatalf("%s: decoded partial does not encode: %v", s.Name(), err)
				}
				q, err := s.DecodePartial(pk, enc)
				if err != nil {
					t.Fatalf("%s: re-encoded partial does not decode: %v", s.Name(), err)
				}
				a, b := p.(*partial), q.(*partial)
				if a.index != b.index || a.epoch != b.epoch || a.v.Cmp(b.v) != 0 {
					t.Fatalf("%s: partial %+v became %+v across a re-encode", s.Name(), a, b)
				}
			}
			if sub, err := s.DecodeSubShare(pk, data); err == nil {
				enc, err := s.AppendSubShare(nil, sub)
				if err != nil {
					t.Fatalf("%s: decoded sub-share does not encode: %v", s.Name(), err)
				}
				again, err := s.DecodeSubShare(pk, enc)
				if err != nil {
					t.Fatalf("%s: re-encoded sub-share does not decode: %v", s.Name(), err)
				}
				a, b := sub.(*subShare), again.(*subShare)
				if a.from != b.from || a.to != b.to || a.epoch != b.epoch || a.v.Cmp(b.v) != 0 {
					t.Fatalf("%s: sub-share %+v became %+v across a re-encode", s.Name(), a, b)
				}
			}
		}
	})
}
