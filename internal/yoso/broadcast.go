package yoso

import (
	"errors"
	"fmt"
	"sync"

	"yosompc/internal/comm"
	"yosompc/internal/transport"
)

// Broadcast implements the ideal broadcast functionality F_BC of the
// paper's Appendix C (after Gentry et al.): a round-indexed map
// y : N × Role → Msg. On (Send, R, x) in round r the functionality stores
// y(r, R) = x, leaks (R, x) to the (rushing) adversary, and delivers the
// Spoke token to R; on (Read, R, r') with r' < r it returns the full row
// y(r', ·).
//
// The MPC drivers in internal/core and internal/baseline use the raw
// transport.Board directly (their committee scheduler subsumes rounds);
// Broadcast exists as the faithful functionality for protocol-level
// reasoning and is exercised by the test suite and the round-structure
// assertions.
type Broadcast struct {
	mu    sync.Mutex
	round int
	// rows[r][roleName] is y(r, roleName): the posted bytes, the same
	// slice the board entry holds.
	rows []map[string][]byte
	// board meters and logs every send.
	board *transport.Board
	phase comm.Phase
	// leak receives (role, message bytes) in send order — the rushing
	// adversary's view. Nil disables leakage recording.
	leak func(role string, wire []byte)
}

// Errors returned by the functionality.
var (
	ErrFutureRound = errors.New("yoso: cannot read the current or a future round")
	ErrDoubleSend  = errors.New("yoso: role already sent in this protocol")
)

// NewBroadcast creates the functionality at round 1, posting every send
// to board (nil allocates a private board).
func NewBroadcast(board *transport.Board, phase comm.Phase) *Broadcast {
	if board == nil {
		board = transport.NewBoard(nil)
	}
	return &Broadcast{
		round: 1,
		rows:  []map[string][]byte{nil, {}}, // rows[0] unused; rows[1] = round 1
		board: board,
		phase: phase,
	}
}

// SetLeak installs the adversary's rushing view.
func (b *Broadcast) SetLeak(leak func(role string, wire []byte)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.leak = leak
}

// Round returns the current round number.
func (b *Broadcast) Round() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.round
}

// NextRound advances the synchronous clock.
func (b *Broadcast) NextRound() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.round++
	b.rows = append(b.rows, map[string][]byte{})
}

// Send stores role's encoded message for the current round, posts it to
// the metered board, leaks it, and kills the role (Spoke). The caller must
// not modify wire afterwards. A role may send exactly once
// across the whole execution — the YOSO constraint, enforced here
// independently of the Role.Post guard.
func (b *Broadcast) Send(role *Role, wire []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if role.HasSpoken() {
		return fmt.Errorf("%w: %s", ErrDoubleSend, role.Name())
	}
	for r := 1; r <= b.round; r++ {
		if _, dup := b.rows[r][role.Name()]; dup {
			return fmt.Errorf("%w: %s", ErrDoubleSend, role.Name())
		}
	}
	if role.Behavior != FailStop {
		b.rows[b.round][role.Name()] = wire
		//yosolint:blocking the row write and the board post must commit atomically under b.mu or readers observe rows the board never saw
		b.board.Post(role.Name(), b.phase, comm.CatMu, wire)
		if b.leak != nil {
			b.leak(role.Name(), wire)
		}
	}
	// Spoke is delivered even to crashing roles: the machine is done.
	role.Spoke()
	return nil
}

// Read returns the row y(r, ·) for a past round r < current round. The
// returned map is a copy; the message bytes are the board's and must be
// treated as immutable.
func (b *Broadcast) Read(r int) (map[string][]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r < 1 || r >= b.round {
		return nil, fmt.Errorf("%w: round %d (current %d)", ErrFutureRound, r, b.round)
	}
	out := make(map[string][]byte, len(b.rows[r]))
	for k, v := range b.rows[r] {
		out[k] = v
	}
	return out, nil
}
