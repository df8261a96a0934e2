// Package transport exercises leak class 5, both directions: posting a
// raw share to the board is a leak, while the encrypt-then-post path must
// stay silent (the acceptance bar for false positives). The directory
// name puts the fixture in a "transport" path segment so its Post method
// matches the suite's board-sink rule.
package transport

import (
	"fmt"

	"yosompc/internal/analysis/secretflow/testdata/src/pke"
	"yosompc/internal/sharing"
)

// Board is a minimal bulletin board.
type Board struct{ posts []any }

// Post publishes payload for every party to read.
func (b *Board) Post(payload any) {
	b.posts = append(b.posts, payload)
}

// PublishShare posts a share without encrypting it first.
func PublishShare(b *Board, sh sharing.Share) {
	b.Post(sh) // want `secret value sh is posted to the board in plaintext by .*Post`
}

// PublishEncrypted is the clean path: encrypt, then post.
func PublishEncrypted(b *Board, sh sharing.Share) {
	raw := sh.Value.Bytes()
	ct := pke.Encrypt(raw[:])
	b.Post(ct)
	b.Post(sh.Index)
}

// PublishSealedInPlace is the clean path in its append form: seal into the
// posting, then post it.
func PublishSealedInPlace(b *Board, sh sharing.Share) {
	raw := []byte(fmt.Sprint(sh))
	b.Post(raw) // want `secret value raw is posted to the board in plaintext by .*Post`
	posting := pke.AppendEncrypt(make([]byte, 0, 64), raw)
	b.Post(posting)
}
