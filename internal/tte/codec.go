package tte

import (
	"cmp"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
)

// Wire encodings of the TE messages (docs/WIRE.md): one codec for both
// backends. Every message is one big-endian integer, with no header, in a
// width its key pins: a ciphertext, a partial and a dealt key share are
// their value in CiphertextSize() bytes; a sub-share and a recovered key
// share are a sign byte (1: negative) and their magnitude in
// SubShareSize(epoch). What a message is about — a partial's index and
// epoch, a sub-share's from, to and epoch, a ciphertext's plaintext bound —
// is public context the reader passes to the decoder, never taken from the
// bytes. The public key's board announcement is its metadata, zero-padded
// to half a ciphertext.
//
// Append* writes behind dst (a member's posting buffer, or its wiped
// plaintext scratch) and returns the extended slice, dst unchanged on
// error; Encode* is Append*(nil, …).

// tagPubInfo heads the public-key announcement.
const tagPubInfo = 0x04

// Codec is the serialization surface both backends provide; the protocol
// layer uses it to move TE messages through PKE envelopes and to put
// ciphertext bytes on the board.
type Codec interface {
	EncodePartial(p PartialDec) ([]byte, error)
	AppendPartial(dst []byte, p PartialDec) ([]byte, error)
	// DecodePartial parses member index's partial under an epoch's share.
	DecodePartial(pk PublicKey, index, epoch int, data []byte) (PartialDec, error)
	AppendSubShare(dst []byte, s SubShare) ([]byte, error)
	// DecodeSubShare parses what member from sent to, resharing an epoch.
	DecodeSubShare(pk PublicKey, from, to, epoch int, data []byte) (SubShare, error)
	// EncodeCiphertext serializes a ciphertext as exactly Size() bytes;
	// PutCiphertext writes the same bytes into dst, exactly Size() bytes
	// that are already zero (a fresh posting's slot), writing only the
	// value's. DecodeCiphertexts parses len(bounds) of them laid end to end
	// and attaches to each the public plaintext bound its reader passes
	// (nil means pk.MaxPlaintext()); DecodeCiphertext is its batch of one.
	EncodeCiphertext(ct Ciphertext) ([]byte, error)
	AppendCiphertext(dst []byte, ct Ciphertext) ([]byte, error)
	PutCiphertext(dst []byte, ct Ciphertext) error
	DecodeCiphertext(pk PublicKey, bound *big.Int, data []byte) (Ciphertext, error)
	DecodeCiphertexts(pk PublicKey, bounds []*big.Int, data []byte) ([]Ciphertext, error)
	// EncodeKeyShare serializes a key share for hand-off inside a PKE
	// envelope.
	EncodeKeyShare(sh KeyShare) ([]byte, error)
	// EncodePublicKey serializes the public key's board announcement.
	EncodePublicKey(pk PublicKey) ([]byte, error)
}

// Compile-time interface checks.
var (
	_ Scheme    = (*Threshold)(nil)
	_ Scheme    = (*Sim)(nil)
	_ Simulator = (*Threshold)(nil)
	_ Simulator = (*Sim)(nil)
	_ Codec     = (*Threshold)(nil)
	_ Codec     = (*Sim)(nil)
)

// codec is the one Codec, embedded by both backends. scheme is the
// backend's name, which its public keys carry; valued says the key shares
// and sub-shares carry values (Threshold's do, Sim's do not).
type codec struct {
	scheme string
	valued bool
}

// Name implements Scheme.
func (c *codec) Name() string { return c.scheme }

// EncodePartial serializes a partial decryption.
func (c *codec) EncodePartial(p PartialDec) ([]byte, error) { return c.AppendPartial(nil, p) }

// AppendPartial appends p's encoding to dst.
func (c *codec) AppendPartial(dst []byte, p PartialDec) ([]byte, error) {
	m, ok := p.(*partial)
	if !ok {
		return dst, fmt.Errorf("%w: partial", ErrWrongKey)
	}
	return appendInt(dst, m.v, m.size, false)
}

// DecodePartial parses a partial decryption serialized by EncodePartial.
func (c *codec) DecodePartial(pk PublicKey, index, epoch int, data []byte) (PartialDec, error) {
	p, err := c.pub(pk)
	if err != nil {
		return nil, err
	}
	v, err := decodeInt(data, p.ctBytes, false)
	if err != nil {
		return nil, err
	}
	return &partial{index: index, epoch: epoch, size: p.ctBytes, v: v}, nil
}

// AppendSubShare appends sub's encoding to dst.
func (c *codec) AppendSubShare(dst []byte, sub SubShare) ([]byte, error) {
	s, ok := sub.(*subShare)
	if !ok {
		return dst, fmt.Errorf("%w: subshare", ErrWrongKey)
	}
	return appendInt(dst, s.v, s.size, true)
}

// DecodeSubShare parses a sub-share serialized by AppendSubShare.
func (c *codec) DecodeSubShare(pk PublicKey, from, to, epoch int, data []byte) (SubShare, error) {
	p, err := c.pub(pk)
	if err != nil {
		return nil, err
	}
	size := p.SubShareSize(epoch)
	v, err := decodeInt(data, size, true)
	if err != nil {
		return nil, err
	}
	return &subShare{from: from, to: to, epoch: epoch, size: size, v: v}, nil
}

// EncodeCiphertext serializes a ciphertext as Size() fixed-width bytes.
func (c *codec) EncodeCiphertext(ct Ciphertext) ([]byte, error) { return c.AppendCiphertext(nil, ct) }

// AppendCiphertext appends ct's Size() fixed-width bytes to dst, whose
// spare capacity may hold old bytes: it clears them, then puts ct.
func (c *codec) AppendCiphertext(dst []byte, ct Ciphertext) ([]byte, error) {
	x, err := asCiphertext(ct)
	if err != nil {
		return dst, err
	}
	return appendInt(dst, x.value, x.size, false)
}

// PutCiphertext writes ct into dst, Size() zero bytes.
func (c *codec) PutCiphertext(dst []byte, ct Ciphertext) error {
	x, err := asCiphertext(ct)
	if err == nil && (len(dst) != x.size || x.value.Sign() < 0 || x.value.BitLen() > 8*x.size) {
		err = fmt.Errorf("%w: ciphertext of %d bytes at most, in a %d-byte slot", ErrMalformedMessage, x.size, len(dst))
	}
	if err == nil {
		putAbs(dst, x.value)
	}
	return err
}

// DecodeCiphertext parses one fixed-width ciphertext under bound.
func (c *codec) DecodeCiphertext(pk PublicKey, bound *big.Int, data []byte) (Ciphertext, error) {
	return first(c.DecodeCiphertexts(pk, []*big.Int{bound}, data))
}

// DecodeCiphertexts parses len(bounds) fixed-width ciphertexts laid end to
// end, ciphertext i under the public plaintext bound bounds[i], which is
// shared, never copied, and must be within the key's capacity; nil is
// pk.MaxPlaintext(). The ciphertexts and their values come from one slab
// each, as EncryptMany's do, and the values' words from one sized for all
// of them at the first one's width: a wider value left over opens another.
func (c *codec) DecodeCiphertexts(pk PublicKey, bounds []*big.Int, data []byte) ([]Ciphertext, error) {
	p, err := c.pub(pk)
	if err != nil {
		return nil, err
	}
	if len(data) != len(bounds)*p.ctBytes {
		return nil, fmt.Errorf("%w: %d bytes, want %d ciphertexts of %d", ErrMalformedMessage, len(data), len(bounds), p.ctBytes)
	}
	vals := make([]big.Int, len(bounds))
	cts := make([]ciphertext, len(bounds))
	out := make([]Ciphertext, len(bounds))
	var ws []big.Word
	for i, b := range bounds {
		if b != nil && b.Cmp(p.maxPlain) > 0 {
			return nil, fmt.Errorf("%w: bound %v", ErrPlaintextTooBig, b)
		}
		mag := skipZeros(data[i*p.ctBytes : (i+1)*p.ctBytes])
		w := wordsOf(mag)
		if len(ws) < w {
			ws = make([]big.Word, w*(len(bounds)-i))
		}
		// SetBytes fills the w words of capacity SetBits hands it.
		vals[i].SetBits(ws[:0:w]).SetBytes(mag)
		ws = ws[w:]
		cts[i] = ciphertext{value: &vals[i], bound: cmp.Or(b, p.maxPlain), size: p.ctBytes}
		out[i] = &cts[i]
	}
	return out, nil
}

// EncodeKeyShare serializes a key share (it travels only inside PKE
// envelopes: it is secret material).
func (c *codec) EncodeKeyShare(sh KeyShare) ([]byte, error) {
	k, err := c.share(sh)
	if err != nil {
		return nil, err
	}
	return appendInt(nil, k.d, k.size, k.epoch > 0)
}

// pubInfoHeader is the announcement's fixed part: tag, n, t, ciphertext
// width.
const pubInfoHeader = 13

// EncodePublicKey serializes the public key's board announcement: the
// public metadata (committee parameters and ciphertext width), zero-padded
// to the modelled announcement size CiphertextSize()/2. The full evaluation
// key material stays with the dealer in both backends.
func (c *codec) EncodePublicKey(pk PublicKey) ([]byte, error) {
	p, err := c.pub(pk)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, max(pubInfoHeader, p.ctBytes/2))
	buf[0] = tagPubInfo
	binary.BigEndian.PutUint32(buf[1:], uint32(p.n))
	binary.BigEndian.PutUint32(buf[5:], uint32(p.t))
	binary.BigEndian.PutUint32(buf[9:], uint32(p.ctBytes))
	return buf, nil
}

// DecodePublicKeyInfo parses a public-key announcement into its metadata
// (n, t, ciphertext width). It is backend-independent: auditors use it to
// validate board traffic without dealer state. The bytes are untrusted, so
// everything KeyGen would refuse is refused here too — an empty committee,
// a threshold the committee cannot meet — as is any length other than the
// one the announced ciphertext width pins, max(13, ctBytes/2).
func DecodePublicKeyInfo(data []byte) (n, t, ctBytes int, err error) {
	if len(data) < pubInfoHeader {
		return 0, 0, 0, fmt.Errorf("%w: short public key announcement", ErrMalformedMessage)
	}
	if data[0] != tagPubInfo {
		return 0, 0, 0, fmt.Errorf("%w: tag %d, want %d", ErrMalformedMessage, data[0], tagPubInfo)
	}
	n = int(binary.BigEndian.Uint32(data[1:]))
	t = int(binary.BigEndian.Uint32(data[5:]))
	ctBytes = int(binary.BigEndian.Uint32(data[9:]))
	if n < 1 || t >= n {
		return 0, 0, 0, fmt.Errorf("%w: public key announces n=%d t=%d", ErrMalformedMessage, n, t)
	}
	if want := max(pubInfoHeader, ctBytes/2); len(data) != want {
		return 0, 0, 0, fmt.Errorf("%w: public key announcement must be %d bytes, got %d", ErrMalformedMessage, want, len(data))
	}
	return n, t, ctBytes, nil
}

// appendInt appends v in a field of size bytes: |v| big-endian, behind a
// sign byte when signed. A nil v is zero. A value the field cannot hold —
// too long, or negative in an unsigned field — is an error, never
// truncated; the key's bounds make every value its scheme computes fit, so
// the check is public and constant-time. putWords writes the field straight
// from v's words, so no copy of a secret value is left behind.
func appendInt(dst []byte, v *big.Int, size int, signed bool) ([]byte, error) {
	if v == nil {
		v = &zero
	}
	n, neg, unsigned := size, v.Sign()>>1&1, 1
	if signed {
		n, unsigned = size-1, 0
	}
	if n < 0 || subtle.ConstantTimeLessOrEq(v.BitLen(), 8*n)&subtle.ConstantTimeEq(int32(neg&unsigned), 0) == 0 {
		return dst, fmt.Errorf("%w: value does not fit its %d-byte field", ErrMalformedMessage, size)
	}
	off := len(dst)
	dst = slices.Grow(dst, size)[:off+size]
	if signed {
		dst[off] = byte(neg)
	}
	putWords(dst[off+size-n:], v.Bits())
	return dst, nil
}

// decodeInt parses appendInt's field, which must be exactly size bytes.
func decodeInt(data []byte, size int, signed bool) (*big.Int, error) {
	if len(data) != size {
		return nil, fmt.Errorf("%w: %d bytes, want %d", ErrMalformedMessage, len(data), size)
	}
	mag := data
	if signed {
		if data[0] > 1 {
			return nil, fmt.Errorf("%w: sign byte %d", ErrMalformedMessage, data[0])
		}
		mag = data[1:]
	}
	v := new(big.Int).SetBytes(skipZeros(mag))
	if signed && data[0] == 1 {
		v.Neg(v)
	}
	return v, nil
}

// skipZeros drops mag's leading zero words, four at a time while it can:
// it keeps a Sim value from allocating, or being read over, its whole field.
func skipZeros(mag []byte) []byte {
	le := binary.LittleEndian
	for len(mag) >= 32 && le.Uint64(mag)|le.Uint64(mag[8:])|le.Uint64(mag[16:])|le.Uint64(mag[24:]) == 0 {
		mag = mag[32:]
	}
	for len(mag) >= 8 && le.Uint64(mag) == 0 {
		mag = mag[8:]
	}
	return mag
}

// wordsOf is how many big.Words hold the big-endian magnitude mag.
func wordsOf(mag []byte) int { return (len(mag) + wordBytes - 1) / wordBytes }

// putAbs writes |v| big-endian into the last bytes of dst, which must cover
// it, and leaves the bytes before them as they are: a Sim ciphertext is a
// few value bytes in a Size()-wide field, and FillBytes would scan them all.
func putAbs(dst []byte, v *big.Int) { putWords(dst[len(dst)-byteLen(v):], v.Bits()) }

var zero big.Int // what a nil value encodes; only read

// putWords writes the value whose words, least significant first, are
// words big-endian into all of dst, which must hold it: whole words from
// the last byte back, then the leading bytes from the next word, and zeros
// in front of the value. It reads words in place.
func putWords(dst []byte, words []big.Word) {
	i := len(dst)
	for _, w := range words {
		if i < wordBytes {
			for ; i > 0; w >>= 8 {
				i--
				dst[i] = byte(w)
			}
			return
		}
		i -= wordBytes
		if wordBytes == 8 {
			binary.BigEndian.PutUint64(dst[i:], uint64(w))
		} else {
			binary.BigEndian.PutUint32(dst[i:], uint32(w))
		}
	}
	clear(dst[:i])
}

// wordBytes is the size of a big.Word.
const wordBytes = bits.UintSize / 8
