// Package sharing exercises the zeroize analyzer: unwiped drops, wipes
// (direct, builtin clear, method, defer'd — including a defer that does
// not cover every exit path), ownership transfers (returns, captures,
// channel sends) with and without //yosolint:owner, local-container
// transfers, aborted-creation error paths, terminators, unbound source
// calls on secret-typed receivers, and the plaintext scratch of the
// append-style secret codecs.
package sharing

import (
	"yosompc/internal/analysis/zeroize/testdata/src/field"
	"yosompc/internal/tte"
)

type vault struct {
	stash []field.Element
}

var global vault

func use(v []field.Element) {}

func checksum(b []byte) uint32 {
	var s uint32
	for _, x := range b {
		s += uint32(x)
	}
	return s
}

// secretKey is a locally marked secret carrier with the recognized
// buffer-producing methods.
//
//yosolint:secret role decryption key seed
type secretKey struct {
	seed []byte
}

func (k *secretKey) Bytes() []byte { return append([]byte(nil), k.seed...) }

func (k *secretKey) Decrypt(env []byte) ([]byte, error) {
	return append([]byte(nil), env...), nil
}

func Dropped(n int) error {
	rnd, err := field.RandomVec(n) // want `secret buffer rnd \(from field\.RandomVec\) is not zeroized on every path`
	if err != nil {
		return err
	}
	use(rnd)
	return nil
}

func ExplicitWipe(n int) error {
	rnd, err := field.RandomVec(n)
	if err != nil {
		return err
	}
	use(rnd)
	field.Zeroize(rnd)
	return nil
}

func ClearWipe(n int) error {
	rnd, err := field.RandomVec(n)
	if err != nil {
		return err
	}
	use(rnd)
	clear(rnd)
	return nil
}

func MethodWipe(n int) error {
	rnd, err := field.RandomVec(n)
	if err != nil {
		return err
	}
	use(rnd)
	rnd.Zeroize()
	return nil
}

func DeferWipe(n int, early bool) error {
	rnd, err := field.RandomVec(n)
	if err != nil {
		return err
	}
	defer field.Zeroize(rnd)
	if early {
		return nil // covered: the defer dominates this exit
	}
	use(rnd)
	return nil
}

func DeferInBranch(n int, flag bool) error {
	rnd, err := field.RandomVec(n) // want `secret buffer rnd \(from field\.RandomVec\) is not zeroized on every path`
	if err != nil {
		return err
	}
	if flag {
		defer field.Zeroize(rnd)
	}
	return nil
}

func PartialWipe(n int, flag bool) error {
	rnd, err := field.RandomVec(n) // want `secret buffer rnd \(from field\.RandomVec\) is not zeroized on every path`
	if err != nil {
		return err
	}
	if flag {
		field.Zeroize(rnd)
		return nil
	}
	return nil
}

func Returned(n int) (field.Vec, error) {
	rnd, err := field.RandomVec(n)
	if err != nil {
		return nil, err
	}
	return rnd, nil // want `secret buffer rnd is returned without a documented owner`
}

func ReturnedOwned(n int) (field.Vec, error) {
	rnd, err := field.RandomVec(n)
	if err != nil {
		return nil, err
	}
	return rnd, nil //yosolint:owner fixture: the caller owns the sampled vector and wipes it after packing
}

func Captured(n int) error {
	rnd, err := field.RandomVec(n)
	if err != nil {
		return err
	}
	global.stash = rnd // want `secret buffer rnd is captured into a long-lived structure`
	return nil
}

func Sent(n int, ch chan []field.Element) error {
	rnd, err := field.RandomVec(n)
	if err != nil {
		return err
	}
	ch <- rnd // want `secret buffer rnd is sent to a channel without a documented owner`
	return nil
}

func LocalTransfer(n, m int) error {
	out := make([]field.Vec, m)
	for b := 0; b < m; b++ {
		rnd, err := field.RandomVec(n)
		if err != nil {
			return err
		}
		out[b] = rnd // transfer into a local container: tracking ends here
	}
	for _, v := range out {
		field.Zeroize(v)
	}
	return nil
}

func MustSample(n int) field.Vec {
	rnd, err := field.RandomVec(n)
	if err != nil {
		panic(err) // terminator, not a drop
	}
	return rnd //yosolint:owner fixture: constructor semantics, the caller wipes
}

func Fingerprint(k *secretKey) uint32 {
	return checksum(k.Bytes()) // want `secret buffer from k\.Bytes is discarded without a wipeable binding`
}

func FingerprintBound(k *secretKey) uint32 {
	kb := k.Bytes()
	s := checksum(kb)
	clear(kb)
	return s
}

func OpenDropped(k *secretKey, env []byte) (uint32, error) {
	pt, err := k.Decrypt(env) // want `secret buffer pt \(from k\.Decrypt\) is not zeroized on every path`
	if err != nil {
		return 0, err
	}
	return checksum(pt), nil
}

func OpenWiped(k *secretKey, env []byte) (uint32, error) {
	pt, err := k.Decrypt(env)
	if err != nil {
		return 0, err
	}
	s := checksum(pt)
	clear(pt)
	return s, nil
}

// The append-style secret codecs (BuiltinSourceFuncs) extend a caller's
// buffer with a plaintext encoding: the extended scratch is an obligation
// like any other secret buffer.

func seal(dst, plain []byte) []byte { return append(dst, plain...) }

func ScratchDropped(c tte.Codec, p tte.PartialDec) ([]byte, error) {
	plain, err := c.AppendPartial(nil, p) // want `secret buffer plain \(from c\.AppendPartial\) is not zeroized on every path`
	if err != nil {
		return nil, err
	}
	return seal(nil, plain), nil
}

func ScratchWiped(c tte.Codec, p tte.PartialDec) ([]byte, error) {
	plain, err := c.AppendPartial(nil, p)
	var out []byte
	if err == nil {
		out = seal(nil, plain)
	}
	clear(plain)
	return out, err
}

// One scratch reused across a loop is wiped after every use, not once at
// the end: an iteration that re-encodes over an unwiped scratch is a drop
// on the path that leaves the loop.
func ScratchReused(c tte.Codec, subs []tte.SubShare, wipe bool) ([]byte, error) {
	var out, plain []byte
	for _, sub := range subs {
		var err error
		plain, err = c.AppendSubShare(plain[:0], sub) // want `secret buffer plain \(from c\.AppendSubShare\) is not zeroized on every path`
		if err == nil {
			out = seal(out, plain)
		}
		if wipe {
			clear(plain)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func ScratchReusedWiped(c tte.Codec, subs []tte.SubShare) ([]byte, error) {
	var out, plain []byte
	for _, sub := range subs {
		var err error
		plain, err = c.AppendSubShare(plain[:0], sub)
		if err == nil {
			out = seal(out, plain)
		}
		clear(plain)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Encoding a public opening straight into the posting has no local to
// wipe; the posting's owner is documented in place.
func PublicPosting(c tte.Codec, p tte.PartialDec, post *struct{ buf []byte }) (err error) {
	post.buf, err = c.AppendPartial(post.buf, p) // want `secret buffer from c\.AppendPartial is discarded without a wipeable binding`
	if err != nil {
		return err
	}
	post.buf, err = c.AppendPartial(post.buf, p) //yosolint:owner fixture: a public opening, the partial is the posting
	return err
}
