// Package pke is the fixture encryption helper: its directory name puts
// it in a "pke" path segment, so Encrypt and AppendEncrypt match the
// suite's sanitizer rule exactly as the real yosompc/internal/pke package
// does.
package pke

// Ciphertext is an opaque encryption of a message.
type Ciphertext []byte

// Encrypt encrypts msg; the result is safe to publish.
func Encrypt(msg []byte) Ciphertext {
	out := make(Ciphertext, len(msg))
	copy(out, msg)
	return out
}

// AppendEncrypt appends msg's encryption to dst; the result is safe to
// publish.
func AppendEncrypt(dst, msg []byte) []byte {
	return append(dst, msg...)
}
