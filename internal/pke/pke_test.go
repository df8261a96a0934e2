package pke

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func backends() map[string]Scheme {
	return map[string]Scheme{
		"ecies-x25519": NewECIES(),
		"sim":          NewSim(),
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, sk, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			msgs := [][]byte{
				{},
				[]byte("x"),
				[]byte("the quick brown fox"),
				bytes.Repeat([]byte{0xAB}, 4096),
			}
			for _, m := range msgs {
				ct, err := pk.Encrypt(m)
				if err != nil {
					t.Fatalf("Encrypt: %v", err)
				}
				got, err := sk.Decrypt(ct)
				if err != nil {
					t.Fatalf("Decrypt: %v", err)
				}
				if !bytes.Equal(got, m) {
					t.Errorf("round trip: got %d bytes, want %d", len(got), len(m))
				}
			}
		})
	}
}

func TestRoundTripProperty(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, sk, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			f := func(msg []byte) bool {
				ct, err := pk.Encrypt(msg)
				if err != nil {
					return false
				}
				got, err := sk.Decrypt(ct)
				return err == nil && bytes.Equal(got, msg)
			}
			cfg := &quick.Config{MaxCount: 25}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestWrongKeyFailsToDecrypt(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk1, _, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			_, sk2, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			ct, err := pk1.Encrypt([]byte("secret"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sk2.Decrypt(ct); err == nil {
				t.Error("wrong key decrypted envelope")
			}
		})
	}
}

func TestSecretKeyBytesRoundTrip(t *testing.T) {
	// The KFF hand-off path: serialize sk, rebuild it, decrypt envelopes
	// addressed to the original public key.
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, sk, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			enc := sk.Bytes()
			if len(enc) != SecretKeySize {
				t.Fatalf("secret encoding is %d bytes, want %d", len(enc), SecretKeySize)
			}
			sk2, err := s.SecretKeyFromBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := pk.Encrypt([]byte("to the future"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sk2.Decrypt(ct)
			if err != nil {
				t.Fatalf("rebuilt key failed to decrypt: %v", err)
			}
			if string(got) != "to the future" {
				t.Errorf("got %q", got)
			}
		})
	}
}

func TestSecretKeyFromBytesRejectsBadLength(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			if _, err := s.SecretKeyFromBytes([]byte{1, 2, 3}); err == nil {
				t.Error("accepted short secret key")
			}
		})
	}
}

func TestPublicFromSecretMatches(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, sk, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pk.Bytes(), sk.Public().Bytes()) {
				t.Error("sk.Public() != pk")
			}
		})
	}
}

func TestFingerprintStable(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, _, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			if pk.Fingerprint() == "" || pk.Fingerprint() != pk.Fingerprint() {
				t.Error("fingerprint unstable or empty")
			}
		})
	}
}

func TestCiphertextSizeModel(t *testing.T) {
	// Sim envelopes must model real ECIES overhead so that byte counts in
	// sim sweeps match the real backend's.
	real := NewECIES()
	sim := NewSim()
	rpk, _, err := real.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	spk, _, err := sim.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte{7}, 100)
	rct, err := rpk.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	sct, err := spk.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rct) != len(sct) {
		t.Errorf("size mismatch: real %d vs sim %d", len(rct), len(sct))
	}
}

func TestECIESTamperDetected(t *testing.T) {
	s := NewECIES()
	pk, sk, err := s.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := pk.Encrypt([]byte("integrity"))
	if err != nil {
		t.Fatal(err)
	}
	// Every byte is covered: the posting key feeds the key derivation, the
	// body and the tag are authenticated.
	for _, at := range []int{0, PostingKeySize - 1, PostingKeySize, len(ct) - 1} {
		bad := bytes.Clone(ct)
		bad[at] ^= 1
		if _, err := sk.Decrypt(bad); !errors.Is(err, ErrDecrypt) {
			t.Errorf("posting tampered at byte %d: err = %v, want ErrDecrypt", at, err)
		}
	}
}

// An envelope is bytes, so nothing but its content tells the backends apart:
// each must reject the other's envelopes as malformed or undecryptable.
func TestSimDecryptWrongBackend(t *testing.T) {
	rpk, rsk, err := NewECIES().GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	spk, ssk, err := NewSim().GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := rpk.Encrypt([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ssk.Decrypt(ct); !errors.Is(err, ErrShortData) && !errors.Is(err, ErrDecrypt) {
		t.Errorf("sim key on an ECIES envelope: err = %v, want ErrShortData or ErrDecrypt", err)
	}
	if ct, err = spk.Encrypt([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := rsk.Decrypt(ct); !errors.Is(err, ErrDecrypt) {
		t.Errorf("ECIES key on a sim envelope: err = %v, want ErrDecrypt", err)
	}
}

// TestEnvelopeSize pins the wire contract both sealing forms share: a
// posting is its PostingKeySize-byte key and then its parts, an envelope is
// exactly EnvelopeOverhead + len(msg) bytes, a Sealer writes both behind dst
// without touching what was there, and every envelope opens to its msg at
// its part.
func TestEnvelopeSize(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, sk, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			prefix := []byte("already posted")
			var seal Sealer
			posting, err := seal.AppendKey(bytes.Clone(prefix), pk)
			if err != nil {
				t.Fatal(err)
			}
			if len(posting) != len(prefix)+PostingKeySize || !bytes.Equal(posting[:len(prefix)], prefix) {
				t.Fatalf("AppendKey wrote %d bytes behind a clobbered prefix", len(posting)-len(prefix))
			}
			key := posting[len(prefix):]
			part := 0
			for _, n := range []int{0, 1, 31, 256, 5000} {
				msg := bytes.Repeat([]byte{byte(n)}, n)
				one, err := pk.Encrypt(msg)
				if err != nil {
					t.Fatal(err)
				}
				if len(one) != PostingKeySize+EnvelopeOverhead+n {
					t.Errorf("Encrypt of %d bytes is %d bytes, want %d", n, len(one), PostingKeySize+EnvelopeOverhead+n)
				}
				if got, err := sk.Decrypt(one); err != nil || !bytes.Equal(got, msg) {
					t.Errorf("Encrypt of %d bytes opens to %d bytes, err %v", n, len(got), err)
				}
				// Spare capacity too small and large enough: the envelope
				// lands behind the prefix either way.
				for _, spare := range []int{0, 2 * (EnvelopeOverhead + n)} {
					dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
					out, err := seal.AppendEncrypt(dst, part, pk, msg)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(out[:len(prefix)], prefix) {
						t.Fatalf("AppendEncrypt clobbered dst: %q", out[:len(prefix)])
					}
					if spare > 0 && &out[0] != &dst[0] {
						t.Errorf("%d-byte message: AppendEncrypt reallocated despite %d spare bytes", n, spare)
					}
					env := out[len(prefix):]
					if len(env) != EnvelopeOverhead+n {
						t.Errorf("envelope of %d bytes is %d bytes, want %d", n, len(env), EnvelopeOverhead+n)
					}
					if got, err := sk.AppendOpen(nil, key, part, env); err != nil || !bytes.Equal(got, msg) {
						t.Errorf("envelope of %d bytes at part %d opens to %d bytes, err %v", n, part, len(got), err)
					}
					part++
				}
			}
		})
	}
}

// TestSealer pins the Sealer contract on one posting sealed to three
// recipients and twice to a fourth, at parts with gaps between them (a tsk
// posting's clear partials lie there): every envelope opens under its own
// recipient's key, at its own part and under its own posting key only; on
// Sim the envelopes are the backend's layout byte for byte; and a Sealer
// refuses to reuse a part or to begin a second posting.
func TestSealer(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pks := make([]PublicKey, 4)
			sks := make([]SecretKey, 4)
			for k := range pks {
				var err error
				if pks[k], sks[k], err = s.GenerateKey(); err != nil {
					t.Fatal(err)
				}
			}
			to := []int{0, 1, 2, 3, 3}
			parts := []int{1, 2, 4, 5, 6}
			msgs := make([][]byte, len(to))
			envs := make([][]byte, len(to))
			var seal Sealer // the zero Sealer is ready to use
			key, err := seal.AppendKey(nil, pks[0])
			if err != nil {
				t.Fatal(err)
			}
			if len(key) != PostingKeySize {
				t.Fatalf("posting key is %d bytes", len(key))
			}
			for e, k := range to {
				msgs[e] = []byte(fmt.Sprintf("envelope %d to recipient %d", e, k))
				if envs[e], err = seal.AppendEncrypt(nil, parts[e], pks[k], msgs[e]); err != nil {
					t.Fatal(err)
				}
			}
			for e, k := range to {
				for r, sk := range sks {
					got, err := sk.AppendOpen(nil, key, parts[e], envs[e])
					if r == k && (err != nil || !bytes.Equal(got, msgs[e])) {
						t.Errorf("envelope %d opens under its recipient's key to %q, %v", e, got, err)
					}
					if r != k && (!errors.Is(err, ErrDecrypt) || got != nil) {
						t.Errorf("envelope %d to %d opens under key %d: %q, %v", e, k, r, got, err)
					}
				}
			}

			// Binding: the two envelopes to recipient 3 open only at their
			// own part and under their own posting key.
			var other Sealer
			otherKey, err := other.AppendKey(nil, pks[3])
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(otherKey, key) {
				t.Fatal("two Sealers drew one posting key")
			}
			for _, e := range []int{3, 4} {
				for _, tc := range []struct {
					what string
					key  []byte
					part int
				}{
					{"the other envelope's part", key, parts[7-e]},
					{"a part nothing was sealed at", key, 3},
					{"part 0", key, 0},
					{"another posting's key", otherKey, parts[e]},
					{"a posting key with one bit flipped", flipBit(key), parts[e]},
				} {
					if got, err := sks[3].AppendOpen(nil, tc.key, tc.part, envs[e]); !errors.Is(err, ErrDecrypt) || got != nil {
						t.Errorf("envelope %d at %s: %q, %v; want ErrDecrypt", e, tc.what, got, err)
					}
				}
			}

			// A Sealer never seals two envelopes at one part, nor one below
			// the last, and begins one posting only.
			for _, part := range []int{parts[len(parts)-1], 0, -1} {
				if out, err := seal.AppendEncrypt([]byte("dst"), part, pks[0], msgs[0]); err == nil || string(out) != "dst" {
					t.Errorf("sealing part %d after part %d: %q, %v", part, parts[len(parts)-1], out, err)
				}
			}
			if out, err := seal.AppendKey([]byte("dst"), pks[0]); err == nil || string(out) != "dst" {
				t.Errorf("a second AppendKey: %q, %v", out, err)
			}
			var fresh Sealer
			if out, err := fresh.AppendEncrypt([]byte("dst"), 0, pks[0], msgs[0]); err == nil || string(out) != "dst" {
				t.Errorf("sealing before AppendKey: %q, %v", out, err)
			}

			if name == "sim" {
				// What every Sim envelope is: key id | length | binding | msg.
				for e, k := range to {
					want := binary.BigEndian.AppendUint64(nil, pks[k].(*simPub).id)
					want = binary.BigEndian.AppendUint32(want, uint32(len(msgs[e])))
					want = binary.BigEndian.AppendUint32(want, simBinding(key, parts[e]))
					want = append(want, msgs[e]...)
					if !bytes.Equal(envs[e], want) {
						t.Errorf("envelope %d: %x, want %x", e, envs[e], want)
					}
				}
				return
			}
			for e, env := range envs {
				for _, at := range []int{0, len(env) - 1} {
					bad := bytes.Clone(env)
					bad[at] ^= 1
					if _, err := sks[to[e]].AppendOpen(nil, key, parts[e], bad); !errors.Is(err, ErrDecrypt) {
						t.Errorf("envelope %d tampered at byte %d: err = %v, want ErrDecrypt", e, at, err)
					}
				}
			}
		})
	}
}

func flipBit(b []byte) []byte {
	b = bytes.Clone(b)
	b[len(b)/2] ^= 0x10
	return b
}

// referenceAESKey is the AES-256 key docs/WIRE.md specifies for the
// envelopes posting key eph seals to recv: SHA-256 over the label, the
// X25519 shared secret and both public keys.
func referenceAESKey(t *testing.T, eph *ecdh.PublicKey, priv *ecdh.PrivateKey, peer, recv *ecdh.PublicKey) []byte {
	t.Helper()
	shared, err := priv.ECDH(peer)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte("yosompc/ecies/v1"))
	h.Write(shared)
	h.Write(eph.Bytes())
	h.Write(recv.Bytes())
	return h.Sum(nil)
}

// TestNoKeyNonceRepeats seals two postings to recipients that repeat, within
// a posting and across both, and checks that no two envelopes share an
// AES-GCM key and nonce — the one thing GCM cannot survive.
func TestNoKeyNonceRepeats(t *testing.T) {
	pks := make([]PublicKey, 3)
	sks := make([]*ecdh.PrivateKey, 3)
	for k := range pks {
		pk, sk, err := NewECIES().GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		pks[k], sks[k] = pk, sk.(*eciesSecret).sk
	}
	to := []int{0, 0, 1, 2, 2, 2, 0}
	seen := map[string]string{}
	for posting := range 2 {
		var seal Sealer
		key, err := seal.AppendKey(nil, pks[0])
		if err != nil {
			t.Fatal(err)
		}
		eph, err := ecdh.X25519().NewPublicKey(key)
		if err != nil {
			t.Fatal(err)
		}
		for part, k := range to {
			if _, err := seal.AppendEncrypt(nil, part, pks[k], []byte("m")); err != nil {
				t.Fatal(err)
			}
			nonce := partNonce(part)
			pair := string(referenceAESKey(t, eph, sks[k], eph, sks[k].PublicKey())) + string(nonce[:])
			who := fmt.Sprintf("posting %d, part %d", posting, part)
			if prev, ok := seen[pair]; ok {
				t.Errorf("%s and %s share an AES key and nonce", who, prev)
			}
			seen[pair] = who
		}
	}
}

// TestECIESMatchesReference opens Sealer envelopes with the construction
// written out from docs/WIRE.md — X25519, SHA-256 over the label, the shared
// secret and both public keys, AES-256-GCM under the part index's nonce —
// and seals a posting the same way for Decrypt, so the format cannot drift
// under either side.
func TestECIESMatchesReference(t *testing.T) {
	skBytes := bytes.Repeat([]byte{3}, SecretKeySize)
	sk, err := NewECIES().SecretKeyFromBytes(skBytes)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := ecdh.X25519().NewPrivateKey(skBytes)
	if err != nil {
		t.Fatal(err)
	}
	gcm := func(key []byte) cipher.AEAD {
		block, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		aead, err := cipher.NewGCM(block)
		if err != nil {
			t.Fatal(err)
		}
		return aead
	}
	nonce := func(part uint64) []byte { return binary.BigEndian.AppendUint64(make([]byte, 4), part) }

	var seal Sealer
	key, err := seal.AppendKey(nil, sk.Public())
	if err != nil {
		t.Fatal(err)
	}
	eph, err := ecdh.X25519().NewPublicKey(key)
	if err != nil {
		t.Fatal(err)
	}
	aead := gcm(referenceAESKey(t, eph, recv, eph, recv.PublicKey()))
	for part, msg := range [][]byte{[]byte("first"), []byte("second, same posting key")} {
		env, err := seal.AppendEncrypt(nil, part, sk.Public(), msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := aead.Open(nil, nonce(uint64(part)), env, nil)
		if err != nil || !bytes.Equal(got, msg) {
			t.Errorf("reference opening of part %d: %q, %v", part, got, err)
		}
	}

	ephPriv, err := ecdh.X25519().NewPrivateKey(bytes.Repeat([]byte{5}, SecretKeySize))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("sealed by the reference")
	ref := gcm(referenceAESKey(t, ephPriv.PublicKey(), ephPriv, recv.PublicKey(), recv.PublicKey()))
	posting := append(ephPriv.PublicKey().Bytes(), ref.Seal(nil, nonce(0), msg, nil)...)
	if got, err := sk.Decrypt(posting); err != nil || !bytes.Equal(got, msg) {
		t.Errorf("Decrypt of a reference posting: %q, %v", got, err)
	}
	env := ref.Seal(nil, nonce(9), msg, nil)
	if got, err := sk.AppendOpen(nil, ephPriv.PublicKey().Bytes(), 9, env); err != nil || !bytes.Equal(got, msg) {
		t.Errorf("AppendOpen of a reference envelope at part 9: %q, %v", got, err)
	}
}

// Decrypt parses untrusted board bytes: whatever is wrong with a posting,
// it errors — with the right class — and never panics or yields plaintext.
func TestDecryptMalformedEnvelope(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, sk, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			_, other, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("partial decryption bytes")
			posting, err := pk.Encrypt(msg)
			if err != nil {
				t.Fatal(err)
			}
			lengthField := func(delta int) []byte {
				bad := bytes.Clone(posting)
				binary.BigEndian.PutUint32(bad[PostingKeySize+8:], uint32(len(msg)+delta))
				return bad
			}
			// The sim backend checks its framing (ErrShortData) before the
			// key; ECIES has no framing beyond the minimum length, so a
			// wrong length is an authentication failure.
			framing := ErrShortData
			if name != "sim" {
				framing = ErrDecrypt
			}
			const minimum = PostingKeySize + EnvelopeOverhead
			cases := []struct {
				name string
				key  SecretKey
				env  []byte
				want error
			}{
				{"nil", sk, nil, ErrShortData},
				{"empty", sk, []byte{}, ErrShortData},
				{"a short posting key", sk, posting[:PostingKeySize-1], ErrShortData},
				{"the posting key alone", sk, posting[:PostingKeySize], ErrShortData},
				{"one byte short of the overhead", sk, posting[:minimum-1], ErrShortData},
				{"truncated to the overhead", sk, posting[:minimum], framing},
				{"truncated by one byte", sk, posting[:len(posting)-1], framing},
				{"over-long by one byte", sk, append(bytes.Clone(posting), 0), framing},
				{"over-long by a posting", sk, append(bytes.Clone(posting), posting...), framing},
				{"length field too small", sk, lengthField(-1), framing},
				{"length field too large", sk, lengthField(+1), framing},
				{"length field huge", sk, lengthField(1 << 31), framing},
				{"wrong key", other, posting, ErrDecrypt},
			}
			for _, tc := range cases {
				in := bytes.Clone(tc.env)
				got, err := tc.key.Decrypt(tc.env)
				if !errors.Is(err, tc.want) || got != nil {
					t.Errorf("%s: plaintext %x, err = %v; want none, %v", tc.name, got, err, tc.want)
				}
				if !bytes.Equal(in, tc.env) {
					t.Errorf("%s: Decrypt modified the posting", tc.name)
				}
			}
			if got, err := sk.Decrypt(posting); err != nil || !bytes.Equal(got, msg) {
				t.Errorf("intact posting: %q, %v", got, err)
			}
		})
	}
}

// AppendOpen opens behind dst: the prefix stays as it was, the plaintext
// is Decrypt's, it lands in dst's own array when the capacity suffices, and
// an envelope that does not open leaves dst exactly as it came.
func TestAppendOpen(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, sk, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			_, other, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("a sealed partial decryption")
			posting, err := pk.Encrypt(msg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sk.Decrypt(posting)
			if err != nil || !bytes.Equal(want, msg) {
				t.Fatalf("Decrypt: %q, %v", want, err)
			}
			key, env := posting[:PostingKeySize], posting[PostingKeySize:]
			prefix := []byte("prefix")
			withPrefix := append(bytes.Clone(prefix), want...)

			// Too little capacity: a new array, the prefix copied in front.
			dst := bytes.Clone(prefix)
			got, err := sk.AppendOpen(dst, key, 0, env)
			if err != nil || !bytes.Equal(got, withPrefix) {
				t.Fatalf("AppendOpen behind a full prefix: %q, %v", got, err)
			}
			if !bytes.Equal(dst, prefix) {
				t.Errorf("AppendOpen changed the prefix to %q", dst)
			}

			// Room enough: the plaintext is written into dst's array.
			dst = append(make([]byte, 0, len(prefix)+len(msg)), prefix...)
			got, err = sk.AppendOpen(dst, key, 0, env)
			if err != nil || !bytes.Equal(got, withPrefix) {
				t.Fatalf("AppendOpen into spare capacity: %q, %v", got, err)
			}
			if &got[0] != &dst[0] || cap(got) != cap(dst) {
				t.Errorf("AppendOpen reallocated although dst had room for the plaintext")
			}

			// ECIES authenticates the body; Sim's tampering is a key id
			// that is not the reader's.
			tampered := bytes.Clone(env)
			if name == "sim" {
				tampered[0] ^= 1
			} else {
				tampered[len(tampered)-1] ^= 1
			}
			for _, tc := range []struct {
				name string
				sk   SecretKey
				key  []byte
				part int
				env  []byte
			}{
				{"short", sk, key, 0, env[:EnvelopeOverhead-1]},
				{"truncated", sk, key, 0, env[:len(env)-1]},
				{"tampered", sk, key, 0, tampered},
				{"wrong key", other, key, 0, env},
				{"short posting key", sk, key[1:], 0, env},
				{"wrong posting key", sk, flipBit(key), 0, env},
				{"wrong part", sk, key, 1, env},
			} {
				spare := append(make([]byte, 0, len(prefix)+len(env)), prefix...)
				got, err := tc.sk.AppendOpen(spare, tc.key, tc.part, tc.env)
				if err == nil {
					t.Errorf("%s: opened to %q", tc.name, got)
					continue
				}
				if !bytes.Equal(got, prefix) || cap(got) != cap(spare) || &got[0] != &spare[0] {
					t.Errorf("%s: returned %q (cap %d), want dst unchanged", tc.name, got, cap(got))
				}
			}
		})
	}
}

// FuzzDecryptEnvelope feeds both backends an arbitrary posting key, part
// index and envelope behind an arbitrary prefix: AppendOpen must never
// panic, must fail only with ErrShortData or ErrDecrypt, must leave its
// inputs and the prefix alone, and must agree with Decrypt on the
// one-envelope posting key ‖ envelope at part 0. Sim opens only an
// envelope of exactly its framed length, to exactly the framed message.
func FuzzDecryptEnvelope(f *testing.F) {
	seed := bytes.Repeat([]byte{7}, SecretKeySize)
	keys := map[string]SecretKey{}
	for name, s := range backends() {
		sk, err := s.SecretKeyFromBytes(seed)
		if err != nil {
			f.Fatal(err)
		}
		keys[name] = sk
		posting, err := sk.Public().Encrypt([]byte("seed corpus message"))
		if err != nil {
			f.Fatal(err)
		}
		key, env := posting[:PostingKeySize], posting[PostingKeySize:]
		f.Add([]byte(nil), key, 0, env)
		f.Add([]byte("prefix"), key, 0, env[:len(env)-1])
		f.Add([]byte{0}, key, 1, env)
		// A posting's envelopes: one Sealer's, one to a stranger and two
		// to the same recipient at parts 1 and 3.
		stranger, _, err := s.GenerateKey()
		if err != nil {
			f.Fatal(err)
		}
		var seal Sealer
		if key, err = seal.AppendKey(nil, stranger); err != nil {
			f.Fatal(err)
		}
		for part, to := range []PublicKey{stranger, sk.Public(), nil, sk.Public()} {
			if to == nil {
				continue
			}
			env, err := seal.AppendEncrypt(nil, part, to, []byte("one posting, one posting key"))
			if err != nil {
				f.Fatal(err)
			}
			f.Add([]byte("a posting's prefix"), key, part, env)
		}
	}
	f.Add([]byte{}, []byte{}, 0, []byte{})
	f.Add([]byte{1, 2, 3}, make([]byte, PostingKeySize), -1, make([]byte, EnvelopeOverhead))
	f.Fuzz(func(t *testing.T, prefix, key []byte, part int, env []byte) {
		for name, sk := range keys {
			inKey, inEnv := bytes.Clone(key), bytes.Clone(env)
			dst := bytes.Clone(prefix)
			out, err := sk.AppendOpen(dst, key, part, env)
			if !bytes.Equal(inKey, key) || !bytes.Equal(inEnv, env) {
				t.Fatalf("%s: AppendOpen modified its input", name)
			}
			if !bytes.Equal(dst, prefix) || len(out) < len(prefix) || !bytes.Equal(out[:len(prefix)], prefix) {
				t.Fatalf("%s: AppendOpen changed the prefix", name)
			}
			if err != nil {
				if !errors.Is(err, ErrShortData) && !errors.Is(err, ErrDecrypt) {
					t.Fatalf("%s: error %v is neither ErrShortData nor ErrDecrypt", name, err)
				}
				if len(out) != len(prefix) {
					t.Fatalf("%s: plaintext alongside error %v", name, err)
				}
			}
			if part == 0 && len(key) == PostingKeySize {
				got, decErr := sk.Decrypt(append(bytes.Clone(key), env...))
				if (err == nil) != (decErr == nil) || (err == nil && !bytes.Equal(out[len(prefix):], got)) {
					t.Fatalf("%s: AppendOpen %x, %v; Decrypt %x, %v", name, out[len(prefix):], err, got, decErr)
				}
			}
			if err != nil {
				continue
			}
			got := out[len(prefix):]
			if len(got) != len(env)-EnvelopeOverhead {
				t.Fatalf("%s: %d-byte plaintext from a %d-byte envelope", name, len(got), len(env))
			}
			// Only a correctly sealed message can authenticate on ECIES;
			// on sim the framing pins the plaintext.
			if name == "sim" && !bytes.Equal(got, env[simHeaderSize:]) {
				t.Fatalf("sim: plaintext is not the framed message")
			}
		}
	})
}

// TestCTEqualID pins the constant-time comparison the sim backend's key
// routing rests on: equal ids match, every differing byte position (low,
// high, single bit) mismatches.
func TestCTEqualID(t *testing.T) {
	cases := []struct {
		a, b uint64
		want bool
	}{
		{0, 0, true},
		{0xDEADBEEFCAFE0123, 0xDEADBEEFCAFE0123, true},
		{0, 1, false},
		{1 << 63, 0, false},
		{0xDEADBEEFCAFE0123, 0xDEADBEEFCAFE0122, false},
		{0xDEADBEEFCAFE0123, 0x5EADBEEFCAFE0123, false},
	}
	for _, c := range cases {
		if got := ctEqualID(c.a, c.b); got != c.want {
			t.Errorf("ctEqualID(%#x, %#x) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestSimKeyRoutingComparisonPath asserts the sim Decrypt routing
// decision end to end: the matching key (including one rebuilt from its
// byte encoding, exercising the derived-id path) opens the envelope, a
// different key is rejected with ErrDecrypt.
func TestSimKeyRoutingComparisonPath(t *testing.T) {
	s := NewSim()
	_, ska, err := s.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	pkb, skb, err := s.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("routed payload")
	ct, err := pkb.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ska.Decrypt(ct); !errors.Is(err, ErrDecrypt) {
		t.Errorf("foreign key: err = %v, want ErrDecrypt", err)
	}
	got, err := skb.Decrypt(ct)
	if err != nil {
		t.Fatalf("matching key: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("plaintext = %q, want %q", got, msg)
	}
	rebuilt, err := s.SecretKeyFromBytes(skb.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rebuilt.Decrypt(ct); err != nil {
		t.Errorf("rebuilt matching key: %v", err)
	}
}

func BenchmarkECIESEncrypt(b *testing.B) {
	s := NewECIES()
	pk, _, err := s.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	msg := bytes.Repeat([]byte{1}, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Encrypt(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECIESDecrypt(b *testing.B) {
	s := NewECIES()
	pk, sk, err := s.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := pk.Encrypt(bytes.Repeat([]byte{1}, 256))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}
