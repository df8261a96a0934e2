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
	// Every byte is covered: the ephemeral key and the nonce feed the key
	// derivation and the AEAD, the body and the tag are authenticated.
	for _, at := range []int{0, ephemeralSize, ephemeralSize + nonceSize, len(ct) - 1} {
		bad := bytes.Clone(ct)
		bad[at] ^= 1
		if _, err := sk.Decrypt(bad); !errors.Is(err, ErrDecrypt) {
			t.Errorf("envelope tampered at byte %d: err = %v, want ErrDecrypt", at, err)
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

// TestEnvelopeSize pins the wire contract both sealing forms share: the
// envelope is exactly EnvelopeOverhead + len(msg) bytes, a Sealer writes it
// behind dst without touching what was there, and both open to msg.
func TestEnvelopeSize(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, sk, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			prefix := []byte("already posted")
			var seal Sealer
			for _, n := range []int{0, 1, 31, 256, 5000} {
				msg := bytes.Repeat([]byte{byte(n)}, n)
				env, err := pk.Encrypt(msg)
				if err != nil {
					t.Fatal(err)
				}
				// Spare capacity too small and large enough: the envelope
				// lands behind the prefix either way.
				for _, spare := range []int{0, 2 * (EnvelopeOverhead + n)} {
					dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
					out, err := seal.AppendEncrypt(dst, pk, msg)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(out[:len(prefix)], prefix) {
						t.Fatalf("AppendEncrypt clobbered dst: %q", out[:len(prefix)])
					}
					if spare > 0 && &out[0] != &dst[0] {
						t.Errorf("%d-byte message: AppendEncrypt reallocated despite %d spare bytes", n, spare)
					}
					for form, e := range map[string][]byte{"Encrypt": env, "AppendEncrypt": out[len(prefix):]} {
						if len(e) != EnvelopeOverhead+n {
							t.Errorf("%s of %d bytes is %d bytes, want %d", form, n, len(e), EnvelopeOverhead+n)
						}
						got, err := sk.Decrypt(e)
						if err != nil || !bytes.Equal(got, msg) {
							t.Errorf("%s of %d bytes opens to %d bytes, err %v", form, n, len(got), err)
						}
					}
				}
			}
		})
	}
}

// TestSealer pins the Sealer contract on one Sealer that seals to three
// recipients and twice to a fourth: every envelope opens under its own
// recipient's key only, on ECIES they all carry one ephemeral key and each
// its own nonce, and on Sim they are the backend's envelopes byte for byte.
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
			msgs := make([][]byte, len(to))
			envs := make([][]byte, len(to))
			var seal Sealer // the zero Sealer is ready to use
			for e, k := range to {
				msgs[e] = []byte(fmt.Sprintf("envelope %d to recipient %d", e, k))
				var err error
				if envs[e], err = seal.AppendEncrypt(nil, pks[k], msgs[e]); err != nil {
					t.Fatal(err)
				}
			}
			for e, k := range to {
				for r, sk := range sks {
					got, err := sk.Decrypt(envs[e])
					if r == k && (err != nil || !bytes.Equal(got, msgs[e])) {
						t.Errorf("envelope %d opens under its recipient's key to %q, %v", e, got, err)
					}
					if r != k && (!errors.Is(err, ErrDecrypt) || got != nil) {
						t.Errorf("envelope %d to %d opens under key %d: %q, %v", e, k, r, got, err)
					}
				}
			}

			if name == "sim" {
				// What every Sim envelope is: key id | length | msg | zero pad.
				for e, k := range to {
					want := binary.BigEndian.AppendUint64(nil, pks[k].(*simPub).id)
					want = binary.BigEndian.AppendUint32(want, uint32(len(msgs[e])))
					want = append(want, msgs[e]...)
					want = append(want, make([]byte, EnvelopeOverhead-simHeaderSize)...)
					enc, err := pks[k].Encrypt(msgs[e])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(envs[e], want) || !bytes.Equal(enc, want) {
						t.Errorf("envelope %d: Sealer %x, Encrypt %x, want %x", e, envs[e], enc, want)
					}
				}
				return
			}

			eph := envs[0][:ephemeralSize]
			for e, env := range envs {
				if !bytes.Equal(env[:ephemeralSize], eph) {
					t.Errorf("envelope %d carries ephemeral key %x, the first %x", e, env[:ephemeralSize], eph)
				}
			}
			nonce := func(env []byte) []byte { return env[ephemeralSize : ephemeralSize+nonceSize] }
			if bytes.Equal(nonce(envs[3]), nonce(envs[4])) {
				t.Error("two envelopes to one recipient share a nonce, and so an AES-GCM key and nonce")
			}
			for e, env := range envs {
				for _, at := range []int{0, ephemeralSize, ephemeralSize + nonceSize, len(env) - 1} {
					bad := bytes.Clone(env)
					bad[at] ^= 1
					if _, err := sks[to[e]].Decrypt(bad); !errors.Is(err, ErrDecrypt) {
						t.Errorf("envelope %d tampered at byte %d: err = %v, want ErrDecrypt", e, at, err)
					}
				}
			}
			// Same key, same ephemeral key: the nonce still binds each body.
			swapped := append(bytes.Clone(envs[3][:ephemeralSize]), nonce(envs[4])...)
			swapped = append(swapped, envs[3][ephemeralSize+nonceSize:]...)
			if _, err := sks[3].Decrypt(swapped); !errors.Is(err, ErrDecrypt) {
				t.Errorf("envelope 3 under envelope 4's nonce: err = %v, want ErrDecrypt", err)
			}

			var other Sealer
			env, err := other.AppendEncrypt(nil, pks[0], msgs[0])
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(env[:ephemeralSize], eph) {
				t.Error("a second Sealer reuses the first one's ephemeral key")
			}
			if env, err = pks[0].Encrypt(msgs[0]); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(env[:ephemeralSize], eph) {
				t.Error("Encrypt reuses a Sealer's ephemeral key")
			}
		})
	}
}

// TestECIESMatchesReference opens Sealer envelopes with the construction
// written out from docs/WIRE.md — X25519, SHA-256 over the label, the shared
// secret and both public keys, AES-256-GCM — and seals one the same way for
// Decrypt, so the envelope format cannot drift under either side.
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
	aead := func(eph *ecdh.PublicKey, priv *ecdh.PrivateKey, peer *ecdh.PublicKey) cipher.AEAD {
		shared, err := priv.ECDH(peer)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write([]byte("yosompc/ecies/v1"))
		h.Write(shared)
		h.Write(eph.Bytes())
		h.Write(recv.PublicKey().Bytes())
		block, err := aes.NewCipher(h.Sum(nil))
		if err != nil {
			t.Fatal(err)
		}
		gcm, err := cipher.NewGCM(block)
		if err != nil {
			t.Fatal(err)
		}
		return gcm
	}

	var seal Sealer
	for _, msg := range [][]byte{[]byte("first"), []byte("second, same ephemeral key")} {
		env, err := seal.AppendEncrypt(nil, sk.Public(), msg)
		if err != nil {
			t.Fatal(err)
		}
		eph, err := ecdh.X25519().NewPublicKey(env[:ephemeralSize])
		if err != nil {
			t.Fatal(err)
		}
		got, err := aead(eph, recv, eph).Open(nil, env[ephemeralSize:ephemeralSize+nonceSize], env[ephemeralSize+nonceSize:], nil)
		if err != nil || !bytes.Equal(got, msg) {
			t.Errorf("reference opening of a Sealer envelope: %q, %v", got, err)
		}
	}

	ephPriv, err := ecdh.X25519().NewPrivateKey(bytes.Repeat([]byte{5}, SecretKeySize))
	if err != nil {
		t.Fatal(err)
	}
	nonce := bytes.Repeat([]byte{9}, nonceSize)
	msg := []byte("sealed by the reference")
	env := append(append(ephPriv.PublicKey().Bytes(), nonce...), aead(ephPriv.PublicKey(), ephPriv, recv.PublicKey()).Seal(nil, nonce, msg, nil)...)
	if got, err := sk.Decrypt(env); err != nil || !bytes.Equal(got, msg) {
		t.Errorf("Decrypt of a reference envelope: %q, %v", got, err)
	}
}

// Decrypt parses untrusted board bytes: whatever is wrong with an envelope,
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
			env, err := pk.Encrypt(msg)
			if err != nil {
				t.Fatal(err)
			}
			lengthField := func(delta int) []byte {
				bad := bytes.Clone(env)
				binary.BigEndian.PutUint32(bad[8:], uint32(len(msg)+delta))
				return bad
			}
			// The sim backend checks its framing (ErrShortData) before the
			// key; ECIES has no framing beyond the minimum length, so a
			// wrong length is an authentication failure.
			framing := ErrShortData
			if name != "sim" {
				framing = ErrDecrypt
			}
			cases := []struct {
				name string
				key  SecretKey
				env  []byte
				want error
			}{
				{"nil", sk, nil, ErrShortData},
				{"empty", sk, []byte{}, ErrShortData},
				{"one byte short of the overhead", sk, env[:EnvelopeOverhead-1], ErrShortData},
				{"truncated to the overhead", sk, env[:EnvelopeOverhead], framing},
				{"truncated by one byte", sk, env[:len(env)-1], framing},
				{"over-long by one byte", sk, append(bytes.Clone(env), 0), framing},
				{"over-long by an envelope", sk, append(bytes.Clone(env), env...), framing},
				{"length field too small", sk, lengthField(-1), framing},
				{"length field too large", sk, lengthField(+1), framing},
				{"length field huge", sk, lengthField(1 << 31), framing},
				{"wrong key", other, env, ErrDecrypt},
			}
			for _, tc := range cases {
				in := bytes.Clone(tc.env)
				got, err := tc.key.Decrypt(tc.env)
				if !errors.Is(err, tc.want) || got != nil {
					t.Errorf("%s: plaintext %x, err = %v; want none, %v", tc.name, got, err, tc.want)
				}
				if !bytes.Equal(in, tc.env) {
					t.Errorf("%s: Decrypt modified the envelope", tc.name)
				}
			}
			if got, err := sk.Decrypt(env); err != nil || !bytes.Equal(got, msg) {
				t.Errorf("intact envelope: %q, %v", got, err)
			}
		})
	}
}

// AppendDecrypt opens behind dst: the prefix stays as it was, the plaintext
// is Decrypt's, it lands in dst's own array when the capacity suffices, and
// an envelope that does not open leaves dst exactly as it came.
func TestAppendDecrypt(t *testing.T) {
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
			env, err := pk.Encrypt(msg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sk.Decrypt(env)
			if err != nil || !bytes.Equal(want, msg) {
				t.Fatalf("Decrypt: %q, %v", want, err)
			}
			prefix := []byte("prefix")
			withPrefix := append(bytes.Clone(prefix), want...)

			// Too little capacity: a new array, the prefix copied in front.
			dst := bytes.Clone(prefix)
			got, err := sk.AppendDecrypt(dst, env)
			if err != nil || !bytes.Equal(got, withPrefix) {
				t.Fatalf("AppendDecrypt behind a full prefix: %q, %v", got, err)
			}
			if !bytes.Equal(dst, prefix) {
				t.Errorf("AppendDecrypt changed the prefix to %q", dst)
			}

			// Room enough: the plaintext is written into dst's array.
			dst = append(make([]byte, 0, len(prefix)+len(msg)), prefix...)
			got, err = sk.AppendDecrypt(dst, env)
			if err != nil || !bytes.Equal(got, withPrefix) {
				t.Fatalf("AppendDecrypt into spare capacity: %q, %v", got, err)
			}
			if &got[0] != &dst[0] || cap(got) != cap(dst) {
				t.Errorf("AppendDecrypt reallocated although dst had room for the plaintext")
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
				key  SecretKey
				env  []byte
			}{
				{"short", sk, env[:EnvelopeOverhead-1]},
				{"truncated", sk, env[:len(env)-1]},
				{"tampered", sk, tampered},
				{"wrong key", other, env},
			} {
				spare := append(make([]byte, 0, len(prefix)+len(env)), prefix...)
				got, err := tc.key.AppendDecrypt(spare, tc.env)
				if err == nil {
					t.Errorf("%s: opened to %q", tc.name, got)
					continue
				}
				if !bytes.Equal(got, prefix) || cap(got) != cap(spare) || &got[0] != &spare[0] {
					t.Errorf("%s: returned %q (cap %d), want dst unchanged", tc.name, got, cap(got))
				}
				if dec, err := tc.key.Decrypt(tc.env); err == nil || dec != nil {
					t.Errorf("%s: Decrypt opened to %q, %v", tc.name, dec, err)
				}
			}
		})
	}
}

// FuzzDecryptEnvelope feeds both backends arbitrary envelope bytes behind an
// arbitrary prefix: AppendDecrypt must never panic, must leave the input and
// the prefix alone, must agree with Decrypt, and may only succeed on the sim
// backend — where the plaintext is then exactly the framed message.
func FuzzDecryptEnvelope(f *testing.F) {
	seed := bytes.Repeat([]byte{7}, SecretKeySize)
	keys := map[string]SecretKey{}
	for name, s := range backends() {
		sk, err := s.SecretKeyFromBytes(seed)
		if err != nil {
			f.Fatal(err)
		}
		keys[name] = sk
		env, err := sk.Public().Encrypt([]byte("seed corpus message"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(nil), env)
		f.Add([]byte("prefix"), env[:len(env)-1])
		f.Add([]byte{0}, env[:EnvelopeOverhead])
		// A posting's envelopes: one Sealer's, so they share an ephemeral
		// key, one to a stranger and two to the same recipient.
		stranger, _, err := s.GenerateKey()
		if err != nil {
			f.Fatal(err)
		}
		var seal Sealer
		for _, to := range []PublicKey{stranger, sk.Public(), sk.Public()} {
			env, err := seal.AppendEncrypt(nil, to, []byte("one posting, one ephemeral key"))
			if err != nil {
				f.Fatal(err)
			}
			f.Add([]byte("a posting's prefix"), env)
		}
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, make([]byte, EnvelopeOverhead))
	f.Fuzz(func(t *testing.T, prefix, env []byte) {
		for name, sk := range keys {
			in := bytes.Clone(env)
			dst := bytes.Clone(prefix)
			out, err := sk.AppendDecrypt(dst, env)
			if !bytes.Equal(in, env) {
				t.Fatalf("%s: AppendDecrypt modified the envelope", name)
			}
			if !bytes.Equal(dst, prefix) || len(out) < len(prefix) || !bytes.Equal(out[:len(prefix)], prefix) {
				t.Fatalf("%s: AppendDecrypt changed the prefix", name)
			}
			got, decErr := sk.Decrypt(env)
			if (err == nil) != (decErr == nil) {
				t.Fatalf("%s: AppendDecrypt err = %v, Decrypt err = %v", name, err, decErr)
			}
			if err != nil {
				if got != nil || len(out) != len(prefix) {
					t.Fatalf("%s: plaintext alongside error %v", name, err)
				}
				continue
			}
			if !bytes.Equal(out[len(prefix):], got) {
				t.Fatalf("%s: AppendDecrypt opened to %x, Decrypt to %x", name, out[len(prefix):], got)
			}
			if len(got) != len(env)-EnvelopeOverhead {
				t.Fatalf("%s: %d-byte plaintext from a %d-byte envelope", name, len(got), len(env))
			}
			// Only a correctly re-sealed message can authenticate on
			// ECIES; on sim the framing pins the plaintext.
			if name == "sim" && !bytes.Equal(got, env[simHeaderSize:simHeaderSize+len(got)]) {
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
