package tte

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
)

// Wire encodings of the TE messages (docs/WIRE.md): one codec for both
// backends, which differ only in padding. Partials, sub-shares and key
// shares travel inside PKE envelopes in one length-prefixed layout
// (big-endian), which Sim zero-extends to its modelled sizes so that
// measured bytes equal modelled bytes:
//
//	partial:   u8 tag | u32 index | u32 epoch | u8 sign | u32 len | value
//	sub-share: u8 tag | u32 from | u32 to | u32 epoch | u8 sign | u32 len | value
//	key share: u8 tag | u32 index | u32 epoch | u8 sign | u32 len | value
//
// A ciphertext is its value as exactly Size() big-endian bytes with no
// header: the size is pinned by the public key, and the plaintext bound is
// public context re-supplied at decode. The public key's board announcement
// is its metadata, zero-padded to half a ciphertext.
//
// Append* writes behind dst (a member's posting buffer, or its wiped
// plaintext scratch) and returns the extended slice, dst unchanged on
// error; Encode* is Append*(nil, …).

const (
	tagPartial  = 0x01
	tagSubShare = 0x02
	tagKeyShare = 0x03
	tagPubInfo  = 0x04
)

// Codec is the serialization surface both backends provide; the protocol
// layer uses it to move TE messages through PKE envelopes and to put
// ciphertext bytes on the board.
type Codec interface {
	EncodePartial(p PartialDec) ([]byte, error)
	AppendPartial(dst []byte, p PartialDec) ([]byte, error)
	DecodePartial(pk PublicKey, data []byte) (PartialDec, error)
	AppendSubShare(dst []byte, s SubShare) ([]byte, error)
	DecodeSubShare(pk PublicKey, data []byte) (SubShare, error)
	// EncodeCiphertext serializes a ciphertext as exactly Size() bytes;
	// DecodeCiphertext re-attaches the public plaintext bound (nil means
	// pk.MaxPlaintext()). PutCiphertext writes the same bytes into dst,
	// exactly Size() bytes that are already zero (a fresh posting's slot),
	// writing only the value's.
	EncodeCiphertext(ct Ciphertext) ([]byte, error)
	AppendCiphertext(dst []byte, ct Ciphertext) ([]byte, error)
	PutCiphertext(dst []byte, ct Ciphertext) error
	DecodeCiphertext(pk PublicKey, bound *big.Int, data []byte) (Ciphertext, error)
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
// backend's name, which its public keys carry. The pads are the sizes Sim
// zero-extends its encodings to (zero on Threshold); valued says the key
// shares and sub-shares carry values (Threshold's do, Sim's do not).
type codec struct {
	scheme                               string
	partialPad, subSharePad, keySharePad int
	valued                               bool
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
	return appendBig(dst, c.partialPad, tagPartial, m.v, uint32(m.index), uint32(m.epoch)), nil //yosolint:vartime length-prefixed encoding is value-length dependent by construction; the envelope ciphertext size on the board reveals the same length
}

// DecodePartial parses a partial decryption serialized by EncodePartial.
func (c *codec) DecodePartial(pk PublicKey, data []byte) (PartialDec, error) {
	if _, err := c.pub(pk); err != nil {
		return nil, err
	}
	fields, v, err := decodeBig(tagPartial, 2, data)
	if err != nil {
		return nil, err
	}
	return &partial{index: int(fields[0]), epoch: int(fields[1]), v: v}, nil
}

// AppendSubShare appends sub's encoding to dst.
func (c *codec) AppendSubShare(dst []byte, sub SubShare) ([]byte, error) {
	s, ok := sub.(*subShare)
	if !ok {
		return dst, fmt.Errorf("%w: subshare", ErrWrongKey)
	}
	return appendBig(dst, c.subSharePad, tagSubShare, s.v, uint32(s.from), uint32(s.to), uint32(s.epoch)), nil //yosolint:vartime length-prefixed encoding is value-length dependent by construction; the envelope ciphertext size on the board reveals the same length
}

// DecodeSubShare parses a sub-share serialized by AppendSubShare.
func (c *codec) DecodeSubShare(pk PublicKey, data []byte) (SubShare, error) {
	if _, err := c.pub(pk); err != nil {
		return nil, err
	}
	fields, v, err := decodeBig(tagSubShare, 3, data)
	if err != nil {
		return nil, err
	}
	return &subShare{from: int(fields[0]), to: int(fields[1]), epoch: int(fields[2]), v: v}, nil
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
	out := slices.Grow(dst, x.size)[:len(dst)+x.size]
	clear(out[len(dst):])
	if err := c.PutCiphertext(out[len(dst):], ct); err != nil {
		return dst, err
	}
	return out, nil
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

// DecodeCiphertext parses a fixed-width ciphertext. bound is the public
// plaintext bound under which the ciphertext was produced; nil defaults to
// pk.MaxPlaintext().
func (c *codec) DecodeCiphertext(pk PublicKey, bound *big.Int, data []byte) (Ciphertext, error) {
	p, err := c.pub(pk)
	if err != nil {
		return nil, err
	}
	if len(data) != p.ctBytes {
		return nil, fmt.Errorf("%w: ciphertext must be %d bytes, got %d", ErrMalformedMessage, p.ctBytes, len(data))
	}
	if bound == nil {
		bound = p.maxPlain
	}
	return &ciphertext{value: new(big.Int).SetBytes(data), bound: new(big.Int).Set(bound), size: p.ctBytes}, nil
}

// EncodeKeyShare serializes a key share (it travels only inside PKE
// envelopes: it is secret material).
func (c *codec) EncodeKeyShare(sh KeyShare) ([]byte, error) {
	k, err := c.share(sh)
	if err != nil {
		return nil, err
	}
	return appendBig(nil, c.keySharePad, tagKeyShare, k.d, uint32(k.index), uint32(k.epoch)), nil //yosolint:vartime length-prefixed encoding is value-length dependent by construction; the PKE envelope size reveals the same length
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
	buf := make([]byte, 0, max(pubInfoHeader, p.ctBytes/2))
	buf = append(buf, tagPubInfo)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.n))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.t))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.ctBytes))
	return padTo(buf, p.ctBytes/2), nil
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

// appendBig appends tag | fields | sign | u32 len | value, zero-extended to
// pad bytes in all, writing the value in place so no intermediate copy of it
// exists. A nil value encodes as zero.
func appendBig(dst []byte, pad int, tag byte, v *big.Int, fields ...uint32) []byte {
	if v == nil {
		v = new(big.Int)
	}
	start, vlen := len(dst), byteLen(v)
	dst = slices.Grow(dst, max(pad, 1+4*len(fields)+1+4+vlen))
	dst = append(dst, tag)
	for _, f := range fields {
		dst = binary.BigEndian.AppendUint32(dst, f)
	}
	sign := byte(0)
	if v.Sign() < 0 {
		sign = 1
	}
	dst = append(dst, sign)
	dst = binary.BigEndian.AppendUint32(dst, uint32(vlen))
	return padTo(appendAbs(dst, v, vlen), start+pad)
}

// appendAbs appends |v| as exactly n big-endian bytes; n must cover v. It
// clears the leading zeros, since dst's spare capacity may hold old bytes (a
// reused scratch), then writes v with putAbs.
func appendAbs(dst []byte, v *big.Int, n int) []byte {
	off := len(dst)
	dst = slices.Grow(dst, n)[:off+n]
	clear(dst[off : off+n-byteLen(v)])
	putAbs(dst[off:], v)
	return dst
}

// putAbs writes |v| big-endian into the last bytes of dst, which must cover
// it, and leaves the bytes before them as they are: a Sim ciphertext is a
// few value bytes in a Size()-wide field. It writes v's words whole, from
// the last byte back, and only the top word's bytes one by one, since
// big.Int's FillBytes scans every byte it fills and OnC1 encodes a packed
// group's Sim partial per layer role online.
func putAbs(dst []byte, v *big.Int) {
	i := len(dst)
	lead := i - byteLen(v)
	for _, w := range v.Bits() {
		if i-wordBytes < lead {
			for ; i > lead; w >>= 8 {
				i--
				dst[i] = byte(w)
			}
			break
		}
		i -= wordBytes
		if wordBytes == 8 {
			binary.BigEndian.PutUint64(dst[i:], uint64(w))
		} else {
			binary.BigEndian.PutUint32(dst[i:], uint32(w))
		}
	}
}

// wordBytes is the size of a big.Word.
const wordBytes = bits.UintSize / 8

// maxFields is the most u32 fields a message carries (a sub-share's three).
const maxFields = 3

// decodeBig parses appendBig's layout with nFields ≤ maxFields fields, which
// it returns by value: the value is the only thing it allocates.
func decodeBig(tag byte, nFields int, data []byte) ([maxFields]uint32, *big.Int, error) {
	var fields [maxFields]uint32
	min := 1 + 4*nFields + 1 + 4
	if len(data) < min {
		return fields, nil, fmt.Errorf("%w: short message", ErrMalformedMessage)
	}
	if data[0] != tag {
		return fields, nil, fmt.Errorf("%w: tag %d, want %d", ErrMalformedMessage, data[0], tag)
	}
	off := 1
	for i := range nFields {
		fields[i] = binary.BigEndian.Uint32(data[off:])
		off += 4
	}
	sign := data[off]
	off++
	vlen := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if len(data) < off+vlen {
		return fields, nil, fmt.Errorf("%w: truncated value", ErrMalformedMessage)
	}
	v := new(big.Int).SetBytes(data[off : off+vlen])
	if sign == 1 {
		v.Neg(v)
	}
	return fields, v, nil
}

// padTo zero-extends buf to size bytes; a buf already that long is returned
// as is. The padding is written explicitly: buf's spare capacity may be a
// reused scratch.
func padTo(buf []byte, size int) []byte {
	if len(buf) >= size {
		return buf
	}
	n := len(buf)
	buf = slices.Grow(buf, size-n)[:size]
	clear(buf[n:])
	return buf
}
