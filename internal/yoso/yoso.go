// Package yoso implements the abstract-YOSO execution substrate: stateless
// roles grouped into committees, a role-assignment functionality minting
// per-role keys, Spoke-token enforcement (each role broadcasts exactly
// once), and a configurable adversary corrupting a random fraction of each
// committee.
//
// The MPC protocols in internal/core and internal/baseline are written
// against this substrate: they never address machines, only roles, and
// every role's entire contribution is the single message it posts to the
// bulletin board before being killed (its state erased).
package yoso

import (
	"errors"
	"fmt"
	"sync"

	"yosompc/internal/comm"
	"yosompc/internal/pke"
	"yosompc/internal/transport"
)

// Behavior classifies a role's corruption status.
type Behavior int

// Corruption statuses. Honest roles follow the protocol; Leaky roles are
// honest-but-curious (they follow the protocol but the adversary reads
// their state — the paper's Leaky set); Malicious roles are actively
// corrupt (arbitrary deviation, rushing); FailStop roles are honest but
// crash before speaking (paper Remark 1 / §5.4).
const (
	Honest Behavior = iota
	Leaky
	Malicious
	FailStop
)

// String implements fmt.Stringer.
func (b Behavior) String() string {
	switch b {
	case Honest:
		return "honest"
	case Leaky:
		return "leaky"
	case Malicious:
		return "malicious"
	case FailStop:
		return "fail-stop"
	default:
		return fmt.Sprintf("behavior(%d)", int(b))
	}
}

// FollowsProtocol reports whether a role with this behavior executes the
// honest code path (Honest and Leaky do; the leak is a property of the
// adversary's view, not of the role's actions).
func (b Behavior) FollowsProtocol() bool { return b == Honest || b == Leaky }

// ErrAlreadySpoke is returned (and then escalated to a panic, because it is
// a protocol bug, not a runtime condition) when a role attempts a second
// broadcast.
var ErrAlreadySpoke = errors.New("yoso: role already spoke")

// Role is one stateless protocol role. A role accumulates its outgoing
// message through Post calls within a single logical broadcast window and
// is killed by Spoke.
type Role struct {
	// Committee is the committee name, e.g. "off1" or "on2".
	Committee string
	// Index is the 1-based slot within the committee.
	Index int
	// Behavior is the role's corruption status.
	Behavior Behavior

	mu    sync.Mutex
	spoke bool
	board *transport.Board

	// keys minted by the role assignment; nil until assigned.
	pub pke.PublicKey
	sec pke.SecretKey
}

// Name returns the canonical "committee/index" name.
func (r *Role) Name() string { return fmt.Sprintf("%s/%d", r.Committee, r.Index) }

// PublicKey returns the role's assigned public key.
func (r *Role) PublicKey() pke.PublicKey { return r.pub }

// SecretKey returns the role's assigned secret key. Reading the secret key
// of a role that has already spoken panics: the machine erased it.
func (r *Role) SecretKey() pke.SecretKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spoke {
		panic(fmt.Sprintf("yoso: %s: secret state erased after Spoke", r.Name()))
	}
	return r.sec
}

// Post publishes one message of the role's single broadcast, carrying the
// message's binary encoding (the board meters len(wire)). A role may Post
// several board entries within its speaking window (they form one logical
// message), but any Post after Spoke is a protocol violation.
func (r *Role) Post(phase comm.Phase, cat comm.Category, wire []byte) {
	r.mu.Lock()
	if r.spoke {
		r.mu.Unlock()
		panic(fmt.Errorf("%w: %s posting in phase %s", ErrAlreadySpoke, r.Name(), phase))
	}
	if r.Behavior == FailStop {
		// A crashed role's messages never reach the board.
		r.mu.Unlock()
		return
	}
	// The speak-once check is done; release the lock before the board
	// call, which may block on a remote transport.
	r.mu.Unlock()
	r.board.Post(r.Name(), phase, cat, wire)
}

// Spoke delivers the Spoke token: the role is killed and its state erased.
func (r *Role) Spoke() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spoke = true
	r.sec = nil
}

// HasSpoken reports whether the role has been killed.
func (r *Role) HasSpoken() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spoke
}

// Committee is an ordered set of n roles playing one protocol step.
type Committee struct {
	// Name is the committee identifier.
	Name string
	// Roles are the member roles, index i at Roles[i-1].
	Roles []*Role
}

// N returns the committee size.
func (c *Committee) N() int { return len(c.Roles) }

// Role returns the 1-based member i.
func (c *Committee) Role(i int) *Role { return c.Roles[i-1] }

// Honest returns the 1-based indices of protocol-following members
// (Honest and Leaky).
func (c *Committee) Honest() []int {
	var out []int
	for i, r := range c.Roles {
		if r.Behavior.FollowsProtocol() {
			out = append(out, i+1)
		}
	}
	return out
}

// CountBehavior returns how many members have the given behavior.
func (c *Committee) CountBehavior(b Behavior) int {
	n := 0
	for _, r := range c.Roles {
		if r.Behavior == b {
			n++
		}
	}
	return n
}

// SpeakAll delivers the Spoke token to every member — the committee's step
// is over and all its machines erase their state.
func (c *Committee) SpeakAll() {
	for _, r := range c.Roles {
		r.Spoke()
	}
}
