// Package committee is the committee-step runtime both MPC drivers run on:
// the packed protocol (internal/core) and the CDN-style baseline
// (internal/baseline) instantiate one Runner each and differ only in data —
// committee names, proof-label prefix, quorum, posting categories.
//
// A step is "every member of a committee posts one payload with an attested
// proof; everyone keeps the payloads whose proofs verify" (Step). Members
// run on the worker pool; results stay slot-indexed, so what is posted,
// metered and excluded never depends on the worker count. A committee that
// holds tsk shares runs the one TskStep: Decrypt (paper Protocol 2) and
// Re-encrypt (Protocol 1) a list of openings, then reshare tsk onward.
//
// Three payload shapes cross the board (docs/WIRE.md): CtBundle, TskPost
// and core's μ bundle. Their encodings carry no header and no addressing —
// routing is positional, and what the board meters is len() of the one
// encoding. The board holds that encoding and nothing else: a step hands its
// verified payloads to its caller, and a TskPost is its posting, which the
// readers open through sub-slice views, a quorum of t+1 contributions at a
// time (quorum in tsk.go).
package committee

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/big"

	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/nizk"
	"yosompc/internal/parallel"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// ErrNotEnough reports that too few verified contributions reached the
// board for guaranteed output delivery.
var ErrNotEnough = errors.New("not enough honest contributions for guaranteed output delivery")

// TE is the threshold-encryption surface the drivers need: the paper's
// eight-algorithm API plus wire serialization.
type TE interface {
	tte.Scheme
	tte.Codec
}

// Runner is the state every committee step of one protocol execution
// shares. The driver fills it in once; TPK is set after TKGen and Span
// follows the open phase.
type Runner struct {
	Board *transport.Board
	Auth  *nizk.Authority
	TE    TE
	// TPK is the threshold public key of the run.
	TPK tte.PublicKey
	// Ctx cancels the run between committee steps; nil never cancels.
	Ctx context.Context
	// Workers is the resolved worker-pool size and Obs its (optional)
	// per-task observer.
	Workers int
	Obs     parallel.Observer
	// Span is the parent of step spans (the open phase, else the run
	// root) and Logger receives step progress; both may be nil.
	Span   *telemetry.Span
	Logger *slog.Logger
	// Prefix namespaces proof statements so two protocols' labels never
	// collide.
	Prefix string
	// Excluded accumulates "role@step (behavior)" for every member whose
	// proof failed or who never spoke.
	Excluded []string
	// ShareRecovered, when non-nil, observes every tsk share a member
	// rebuilds from its hand-off envelopes (core's key-usage audit).
	ShareRecovered func(comm.Phase)
}

// Payload is a step message; Encode produces the bytes that go on the
// board, whose length is what the board meters. The board keeps the returned
// slice, so it must not be modified afterwards.
type Payload interface {
	Encode(r *Runner) ([]byte, error)
}

// Spec names one speaking step: where its postings are metered and the
// label its proofs bind.
type Spec struct {
	Phase comm.Phase
	Cat   comm.Category
	Label string
	// openings and values are what TskStep reports on the step span: the
	// partial decryptions each member computes and the values they carry.
	openings, values int
}

// Post is one verified member contribution.
type Post[T Payload] struct {
	// Index is the member's 1-based committee slot.
	Index   int
	Payload T
}

// CtBundle is a broadcast bundle of threshold ciphertexts.
type CtBundle []tte.Ciphertext

// Encode implements Payload.
func (b CtBundle) Encode(r *Runner) ([]byte, error) {
	size := 0
	for _, ct := range b {
		size += ct.Size()
	}
	out := make([]byte, 0, size)
	for _, ct := range b {
		var err error
		if out, err = r.TE.AppendCiphertext(out, ct); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Pfor fans fn over the run's worker pool.
func (r *Runner) Pfor(n int, fn func(i int) error) error {
	return parallel.ForObserved(r.Ctx, r.Workers, n, fn, r.Obs)
}

// LogSpan emits a structured progress event when a logger is configured.
// Events carry the span's ID, so log lines and trace files cross-reference.
func (r *Runner) LogSpan(sp *telemetry.Span, label string, attrs ...any) {
	if r.Logger == nil {
		return
	}
	if id := sp.ID(); id != 0 {
		attrs = append([]any{"span", id}, attrs...)
	}
	r.Logger.Info("yosompc: "+label, attrs...)
}

func (r *Runner) statement(label, roleName string) []byte {
	return nizk.NewStatement(r.Prefix + label).AddString(roleName).Bytes()
}

// Speak executes one role's speaking step and reports whether its proof
// verifies. Honest roles post the payload from `honest` with an attested
// proof; malicious roles post garbSize bytes of garbage (never consumed —
// only its metered size matters) under a forged proof; fail-stop roles post
// nothing.
func Speak[T Payload](r *Runner, role *yoso.Role, sp Spec, honest func() (T, error), garbSize int) (payload T, ok bool, err error) {
	var enc []byte
	var proof nizk.Proof
	switch role.Behavior {
	case yoso.FailStop:
		return payload, false, nil
	case yoso.Malicious:
		enc, proof = make([]byte, garbSize), r.Auth.Forge()
	default:
		if payload, err = honest(); err == nil {
			enc, err = payload.Encode(r)
		}
		if err != nil {
			return payload, false, fmt.Errorf("%s at %s: %w", role.Name(), sp.Label, err)
		}
		proof = r.Auth.Attest(r.statement(sp.Label, role.Name()))
	}
	role.Post(sp.Phase, sp.Cat, enc)
	role.Post(sp.Phase, comm.CatProof, proof.Bytes())
	return payload, r.Auth.Verify(r.statement(sp.Label, role.Name()), proof), nil
}

// Step runs Speak for every member of a committee and returns the verified
// posts in member order. Members whose proofs fail or who never spoke are
// recorded in r.Excluded. The first member error cancels the remaining
// members and aborts the step. Once members have run, the committee
// receives the Spoke token whether the step succeeded or aborted: its
// speaking window is over, and an aborted step must not leave roles that
// could post again or still hold their secret keys.
func Step[T Payload](r *Runner, c *yoso.Committee, sp Spec, honest func(i int) (T, error), garbSize int) ([]Post[T], error) {
	if r.Ctx != nil {
		if err := r.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Label, err)
		}
	}
	span := r.Span.Child("committee:" + sp.Label)
	defer span.End()
	span.SetStr("committee", c.Name)
	span.SetInt("members", int64(c.N()))
	span.SetInt("openings", int64(sp.openings))
	span.SetInt("values", int64(sp.values))
	// Committee steps run sequentially, so stamping the step span for the
	// duration attributes every member posting to it; the parent span
	// resumes when the step ends.
	r.Board.SetTraceSpan(span.ID())
	defer func() { r.Board.SetTraceSpan(r.Span.ID()) }()
	payloads := make([]T, c.N())
	ok := make([]bool, c.N())
	err := parallel.ForWorker(r.Ctx, r.Workers, c.N(), func(worker, idx0 int) error {
		msp := span.Child("member")
		defer msp.End()
		msp.SetInt("index", int64(idx0+1))
		msp.SetWorker(worker)
		var err error
		payloads[idx0], ok[idx0], err = Speak(r, c.Role(idx0+1), sp,
			func() (T, error) { return honest(idx0 + 1) }, garbSize)
		return err
	}, r.Obs)
	c.SpeakAll()
	if err != nil {
		return nil, err
	}
	verified := make([]Post[T], 0, c.N())
	for idx0, role := range c.Roles {
		if ok[idx0] {
			verified = append(verified, Post[T]{Index: idx0 + 1, Payload: payloads[idx0]})
			continue
		}
		r.Excluded = append(r.Excluded, fmt.Sprintf("%s@%s (%s)", role.Name(), sp.Label, role.Behavior))
		r.LogSpan(span, "role excluded", "role", role.Name(), "step", sp.Label, "behavior", role.Behavior.String())
	}
	span.SetInt("verified", int64(len(verified)))
	r.LogSpan(span, "committee spoke", "committee", c.Name, "step", sp.Label,
		"verified", len(verified), "of", c.N())
	return verified, nil
}

// SumContributions adds each position's verified contributions: the
// standard "everyone computes TEval(tpk, {c_i}_{i∈S}, (1)^|S|)" pattern.
// Positions are independent, so the loop fans out over the worker pool.
func (r *Runner) SumContributions(posts []Post[CtBundle], count int) ([]tte.Ciphertext, error) {
	if len(posts) == 0 {
		return nil, fmt.Errorf("%w: no valid contributions", ErrNotEnough)
	}
	out := make([]tte.Ciphertext, count)
	ones := Ones(len(posts))
	err := r.Pfor(count, func(pos int) error {
		parts := make([]tte.Ciphertext, len(posts))
		for i, p := range posts {
			parts[i] = p.Payload[pos]
		}
		var err error
		out[pos], err = r.TE.Eval(r.TPK, parts, ones)
		return err
	})
	return out, err
}

// Ones returns m big.Int ones — the (1)^|S| coefficient vector of TEval
// sums.
func Ones(m int) []*big.Int {
	out := make([]*big.Int, m)
	for i := range out {
		out[i] = big.NewInt(1)
	}
	return out
}

// FieldCoeff lifts a field element to the non-negative integer coefficient
// TEval expects.
func FieldCoeff(e field.Element) *big.Int { return new(big.Int).SetUint64(e.Uint64()) }

// BoundP is the public bound on a single field-element plaintext.
var BoundP = new(big.Int).SetUint64(field.Modulus)
