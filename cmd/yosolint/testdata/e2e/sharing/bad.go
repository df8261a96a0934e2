// Package sharing is the end-to-end regression fixture for cmd/yosolint:
// one compiling file violating every analyzer in the suite. The driver
// must exit non-zero and name all eight analyzers when pointed here. The
// directory is named "sharing" so the cryptorand and zeroize
// protected-segment rules apply; testdata placement keeps it out of
// ./... wildcard runs.
package sharing

import (
	"log"
	"math/rand"
	"sync"

	"yosompc/internal/comm"
	"yosompc/internal/field"
	realsharing "yosompc/internal/sharing"
	"yosompc/internal/transport"
)

// BadRandom violates cryptorand: protocol randomness from math/rand.
func BadRandom() field.Element {
	return field.New(uint64(rand.Int63()))
}

// BadDroppedError violates postcheck: the board error vanishes.
func BadDroppedError(c *transport.Client) {
	c.Close()
}

// BadShareLog violates secretflow: a secret share reaches a logging sink.
func BadShareLog(sh realsharing.Share) {
	log.Printf("dealt share %v", sh)
}

// poster pairs a mutex with a board client for the lockscope violation.
type poster struct {
	mu sync.Mutex
	c  *transport.Client
}

// BadLockedPost violates lockscope: a board post under a held mutex.
func (p *poster) BadLockedPost(payload []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.c.Post("p", comm.PhaseOnline, comm.CatInput, payload)
	return err
}

// BadSpawn violates goroleak: a goroutine looping on a channel nobody
// closes, with no join, context, or finite body.
func BadSpawn(ch chan int) {
	go func() {
		for v := range ch {
			_ = v
		}
	}()
}

// BadSecretBranch violates sidechannel: a share value decides a branch.
func BadSecretBranch(sh realsharing.Share) field.Element {
	if sh.Value == field.Zero {
		return field.One
	}
	return sh.Value
}

// BadUnwiped violates zeroize: a sampled secret vector is dropped with no
// wipe on the return path.
func BadUnwiped() field.Element {
	v := field.MustRandomVec(4)
	return v[0].Add(v[1])
}

// BadWire violates wirecodec: half a codec, bytes nothing can decode.
type BadWire struct{}

// MarshalBinary is the codec half that gates the pair rule.
func (BadWire) MarshalBinary() ([]byte, error) { return nil, nil }
