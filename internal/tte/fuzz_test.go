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
// partials and sub-shares (envelope contents, decoded as member 2's at
// epoch 0 and as sub-shares of epochs 0 and 1), ciphertexts and public-key
// announcements (board bytes) are all attacker-controlled. No decoder may
// panic; a ciphertext that decodes re-encodes to the same bytes, and a
// partial or sub-share that decodes survives a re-encode unchanged. The
// batch decoder reads data as count%64 ciphertexts under mixed bounds, the
// last one above the key's capacity when count ≥ 128: it refuses exactly a
// wrong length or that bound, and otherwise equals DecodeCiphertext slot by
// slot, each slot re-encoding byte-exact through PutCiphertext.
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
		// A wrong length, a sign byte other than 0 or 1, and a sub-share
		// one byte past its epoch's width.
		badSign := append([]byte{2}, subEnc[1:]...)
		for _, b := range [][]byte{partEnc, subEnc, ctEnc, pubEnc, partEnc[1:], badSign, append(subEnc, 0)} {
			f.Add(b, uint8(1))
		}
		// Batches: two ciphertexts one byte short, none, an all-0xff slot,
		// and a slot bound above the key's capacity.
		f.Add(append(bytes.Clone(ctEnc), ctEnc[1:]...), uint8(2))
		f.Add([]byte{}, uint8(0))
		f.Add(bytes.Repeat([]byte{0xff}, len(ctEnc)), uint8(1))
		f.Add(ctEnc, uint8(129))
	}
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{1, 0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, count uint8) {
		_, _, _, _ = DecodePublicKeyInfo(data)
		for _, k := range keys {
			s, pk := k.s, k.pk
			if ct, err := s.DecodeCiphertext(pk, nil, data); err == nil {
				if got, err := s.EncodeCiphertext(ct); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s: ciphertext %x re-encodes to %x (%v)", s.Name(), data, got, err)
				}
			}
			fuzzBatch(t, s, pk, data, count)
			if p, err := s.DecodePartial(pk, 2, 0, data); err == nil {
				enc, err := s.EncodePartial(p)
				if err != nil {
					t.Fatalf("%s: decoded partial does not encode: %v", s.Name(), err)
				}
				q, err := s.DecodePartial(pk, 2, 0, enc)
				if err != nil {
					t.Fatalf("%s: re-encoded partial does not decode: %v", s.Name(), err)
				}
				a, b := p.(*partial), q.(*partial)
				if len(enc) != len(data) || a.index != b.index || a.epoch != b.epoch || a.v.Cmp(b.v) != 0 {
					t.Fatalf("%s: partial %+v became %+v across a re-encode", s.Name(), a, b)
				}
			}
			for epoch := range 2 {
				sub, err := s.DecodeSubShare(pk, 1, 2, epoch, data)
				if err != nil {
					continue
				}
				enc, err := s.AppendSubShare(nil, sub)
				if err != nil {
					t.Fatalf("%s: decoded sub-share does not encode: %v", s.Name(), err)
				}
				again, err := s.DecodeSubShare(pk, 1, 2, epoch, enc)
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

// fuzzBatch is FuzzDecode's batch-decoder check.
func fuzzBatch(t *testing.T, s Codec, pk PublicKey, data []byte, count uint8) {
	n, w := int(count%64), pk.CiphertextSize()
	bounds := make([]*big.Int, n)
	for i := 1; i < n; i += 2 {
		bounds[i] = big.NewInt(int64(i))
	}
	over := count >= 128 && n > 0
	if over {
		bounds[n-1] = new(big.Int).Add(pk.MaxPlaintext(), bigOne())
	}
	cts, err := s.DecodeCiphertexts(pk, bounds, data)
	switch {
	case len(data) != n*w:
		if err == nil {
			t.Fatalf("%d bytes decoded as %d ciphertexts of %d", len(data), n, w)
		}
		return
	case over:
		if !errors.Is(err, ErrPlaintextTooBig) {
			t.Fatalf("a bound above capacity: %v, want ErrPlaintextTooBig", err)
		}
		return
	case err != nil || len(cts) != n:
		t.Fatalf("%d ciphertexts of %d bytes: %d decoded, %v", n, w, len(cts), err)
	}
	for i, ct := range cts {
		slot := data[i*w : (i+1)*w]
		one, err := s.DecodeCiphertext(pk, bounds[i], slot)
		if err != nil {
			t.Fatalf("slot %d: DecodeCiphertext refuses what the batch decoded: %v", i, err)
		}
		a, b := ct.(*ciphertext), one.(*ciphertext)
		if a.value.Cmp(b.value) != 0 || a.bound.Cmp(b.bound) != 0 || a.size != b.size {
			t.Fatalf("slot %d: batch %+v, single %+v", i, a, b)
		}
		put := make([]byte, w)
		if err := s.PutCiphertext(put, ct); err != nil || !bytes.Equal(put, slot) {
			t.Fatalf("slot %d: %x re-encodes to %x (%v)", i, slot, put, err)
		}
	}
}

// FuzzEvalSum pins TEval's multiply-accumulate kernel to math/big: over
// 0–300 terms whose operands have 0–64 words, with zero, one, single-bit
// (up to 4 096 bits) and arbitrary coefficients, addProduct of every term
// into one word more than the longest termLen equals the plain Σ Mul/Add. The input is read as
// a term count and, per term, a coefficient kind, operand lengths and
// words; past its end every byte reads 0xff, so a short input sums operands
// of all-ones words, the longest carry chains.
func FuzzEvalSum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x2c})                         // 300 terms of all-ones operands
	f.Add([]byte{0x00, 0x03, 1, 2, 2, 0x0f, 0xff, 1}) // one, then a 2^4095 coefficient
	f.Add([]byte{0x00, 0x40, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		n := int(r.next())<<8 | int(r.next())
		n %= 301
		cs, xs := make([]*big.Int, n), make([]*big.Int, n)
		for i := range n {
			switch kind := r.next(); kind % 4 {
			case 0:
				cs[i] = new(big.Int)
			case 1:
				cs[i] = big.NewInt(1)
			case 2:
				bit := (int(r.next())<<8 | int(r.next())) % 4096
				cs[i] = new(big.Int).SetBit(new(big.Int), bit, 1)
			default:
				cs[i] = r.bigInt(int(kind/4) % 65)
			}
			xs[i] = r.bigInt(int(r.next()) % 65)
		}
		want := new(big.Int)
		for i := range cs {
			want.Add(want, new(big.Int).Mul(cs[i], xs[i]))
		}
		longest := 0
		for i := range cs {
			longest = max(longest, termLen(cs[i], xs[i]))
		}
		z := make([]big.Word, longest+1)
		for i := range cs {
			addProduct(z, cs[i], xs[i])
		}
		got := new(big.Int).SetBits(z)
		if got.Cmp(want) != 0 {
			t.Fatalf("%d terms: kernel sum %x, math/big %x", n, got, want)
		}
	})
}

// fuzzReader hands out a fuzz input's bytes, then 0xff forever.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0xff
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// bigInt reads an integer of the given number of words, most significant
// byte first within each word.
func (r *fuzzReader) bigInt(words int) *big.Int {
	ws := make([]big.Word, words)
	for i := range ws {
		for range wordBytes {
			ws[i] = ws[i]<<8 | big.Word(r.next())
		}
	}
	return new(big.Int).SetBits(ws)
}
