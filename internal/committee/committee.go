// Package committee is the committee-step runtime both MPC drivers run on:
// the packed protocol (internal/core) and the CDN-style baseline
// (internal/baseline) instantiate one Runner each and differ only in data —
// committee names, attestation authority, quorum, posting categories.
//
// A step is "every member of a committee posts one payload with an attested
// proof; everyone keeps the payloads whose proofs verify" (Step), or, at an
// unattested step (core's robust μ layers), every posting. Members run on the
// worker pool; results stay slot-indexed, so what is posted, metered and
// excluded never depends on the worker count. A committee that holds tsk
// shares runs the one TskStep: Decrypt (paper Protocol 2) and Re-encrypt
// (Protocol 1) a list of openings, then reshare tsk onward.
//
// Three posting shapes cross the board (docs/WIRE.md): ciphertexts, a tsk
// member's partials and envelopes, and core's μ's. They carry no header and
// no addressing — routing is positional, and what the board meters is
// len() of the posting, a length each step sets in its Spec from
// internal/postlen's functions of the step's public counts. The board holds
// that posting and nothing else, and a step hands its caller the accepted
// postings' bytes (Post.Wire) and nothing else: the readers decode every
// ciphertext and μ from them, attaching the public bounds themselves, and
// open a tsk posting through sub-slice views, a quorum of t+1 contributions
// at a time (quorum in tsk.go).
package committee

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/nizk"
	"yosompc/internal/parallel"
	"yosompc/internal/postlen"
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
	// TPK is the threshold public key of the run and Sizes the widths of
	// its postings under it; SetKey sets both.
	TPK   tte.PublicKey
	Sizes postlen.Sizes
	// Quorum is the speaker count the committees the run's role-addressed
	// Re-encrypts reach need (core: the packed reconstruction threshold).
	// A tsk committee of n answers each such opening from the window of
	// postlen.Window(n, t, Quorum) members its role is owed (TskStep). Zero
	// is t+1: every member answers.
	Quorum int
	// Workers is the resolved worker-pool size and Obs its (optional)
	// per-task observer.
	Workers int
	Obs     parallel.Observer
	// Span is the parent of step spans (the open phase, else the run
	// root); nil records nothing.
	Span *telemetry.Span
	// Excluded accumulates "role@step (behavior)" for every member whose
	// proof failed or who never spoke, and for every malicious member of an
	// unattested step.
	Excluded []string
	// ShareRecovered, when non-nil, observes every tsk share a member
	// rebuilds from its hand-off envelopes (core's key-usage audit).
	ShareRecovered func(comm.Phase)
}

// SetKey fixes the run's threshold public key and, with it, the widths its
// postings are laid out in (postlen.Of).
func (r *Runner) SetKey(tpk tte.PublicKey) { r.TPK, r.Sizes = tpk, postlen.Of(tpk) }

// Spec names one speaking step: where its postings are metered and the
// label its proofs bind.
type Spec struct {
	Phase comm.Phase
	Cat   comm.Category
	Label string
	// Unattested steps post no proof and accept every posting: the readers'
	// decoding corrects a lie (core's robust μ layers, Berlekamp–Welch).
	Unattested bool
	// Len is every posting's length at the step, postlen's of its public
	// counts: an honest encoding's, which Speak enforces, and that of the
	// zeros a malicious member posts.
	Len int
	// openings and values are what TskStep reports on the step span: the
	// openings the step answers and the values they carry.
	openings, values int
}

// Post is one accepted member contribution.
type Post struct {
	// Index is the member's 1-based committee slot.
	Index int
	// Wire is the posting's bytes, the slice the board holds.
	Wire []byte
}

// CtPosting is the posting of cts: make clears it once, and each
// ciphertext writes only its value's bytes into its slot. A non-nil err is
// returned as is, so CtPosting wraps the call that makes cts.
func (r *Runner) CtPosting(cts []tte.Ciphertext, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	out, w := make([]byte, postlen.Posting{Ciphertexts: len(cts)}.Len(r.Sizes)), r.Sizes.Ciphertext
	for i, ct := range cts {
		if err := r.TE.PutCiphertext(out[i*w:(i+1)*w], ct); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Pfor fans fn over the run's worker pool.
func (r *Runner) Pfor(n int, fn func(i int) error) error {
	return parallel.ForObserved(context.TODO(), r.Workers, n, fn, r.Obs)
}

// statement is what a role's proof at a step attests. It binds the bare
// step label: each protocol run attests under its own nizk.Authority, so
// two protocols' proofs never verify under each other's key.
func (r *Runner) statement(label, roleName string) []byte {
	return nizk.NewStatement(label).AddString(roleName).Bytes()
}

// Speak executes one role's speaking step and reports whether its posting is
// accepted: its proof verifies, or, at an unattested step, it posted. Honest
// roles post the bytes `honest` returns with an attested proof; a posting
// other than sp.Len bytes is refused, since readers lay every posting out by
// the step's length. The board keeps those bytes, so honest must not modify
// them afterwards. Malicious roles never call honest: they post sp.Len
// zero bytes, the step's public posting length, under a forged proof, or at
// an unattested step under none, handing the garbage to the readers'
// decoding. Fail-stop roles post nothing.
func Speak(r *Runner, role *yoso.Role, sp Spec, honest func() ([]byte, error)) (post Post, ok bool, err error) {
	post.Index = role.Index
	switch role.Behavior {
	case yoso.FailStop:
		return post, false, nil
	case yoso.Malicious:
		post.Wire = make([]byte, sp.Len)
	default:
		post.Wire, err = honest()
		if err == nil && len(post.Wire) != sp.Len {
			err = fmt.Errorf("posting is %d bytes, the step's length is %d", len(post.Wire), sp.Len)
		}
		if err != nil {
			return post, false, fmt.Errorf("%s at %s: %w", role.Name(), sp.Label, err)
		}
	}
	role.Post(sp.Phase, sp.Cat, post.Wire)
	if sp.Unattested {
		return post, true, nil
	}
	statement := r.statement(sp.Label, role.Name())
	var proof nizk.Proof
	if role.Behavior == yoso.Malicious {
		proof = r.Auth.Forge()
	} else {
		proof = r.Auth.Attest(statement)
	}
	role.Post(sp.Phase, comm.CatProof, proof.Bytes())
	return post, r.Auth.Verify(statement, proof), nil
}

// Step runs Speak for every member of a committee and returns the accepted
// posts in member order. Members whose postings are not accepted, and the
// malicious members of an unattested step, are recorded in r.Excluded. The
// first member error cancels the remaining members and aborts the step.
// Once members have run, the committee receives the Spoke token whether the
// step succeeded or aborted: its speaking window is over, and an aborted step
// must not leave roles that could post again or still hold their secret keys.
func Step(r *Runner, c *yoso.Committee, sp Spec, honest func(i int) ([]byte, error)) ([]Post, error) {
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
	posts := make([]Post, c.N())
	ok := make([]bool, c.N())
	err := parallel.ForWorker(context.TODO(), r.Workers, c.N(), func(worker, idx0 int) error {
		msp := span.Child("member")
		defer msp.End()
		msp.SetInt("index", int64(idx0+1))
		msp.SetWorker(worker)
		var err error
		posts[idx0], ok[idx0], err = Speak(r, c.Role(idx0+1), sp,
			func() ([]byte, error) { return honest(idx0 + 1) })
		return err
	}, r.Obs)
	c.SpeakAll()
	if err != nil {
		return nil, err
	}
	accepted := make([]Post, 0, c.N())
	for idx0, role := range c.Roles {
		if ok[idx0] {
			accepted = append(accepted, posts[idx0])
		}
		if !ok[idx0] || sp.Unattested && !role.Behavior.FollowsProtocol() {
			r.Excluded = append(r.Excluded, fmt.Sprintf("%s@%s (%s)", role.Name(), sp.Label, role.Behavior))
		}
	}
	// members − verified is the number excluded at attested steps only: an
	// unattested step accepts, and excludes, its malicious members' postings.
	span.SetInt("verified", int64(len(accepted)))
	return accepted, nil
}

// EvalTerms is TEval of a linear gate's terms (circuit.Gate.Terms) over the
// per-wire ciphertexts cts: Σ coeff·cts[wire], each coefficient lifted to
// its integer below p. A gate without terms gives the empty sum, the
// canonical encryption of 0.
func (r *Runner) EvalTerms(terms []circuit.Term, cts []tte.Ciphertext) (tte.Ciphertext, error) {
	in := make([]tte.Ciphertext, len(terms))
	coeffs := make([]*big.Int, len(terms))
	for i, t := range terms {
		in[i], coeffs[i] = cts[t.Wire], FieldCoeff(t.Coeff)
	}
	return r.TE.Eval(r.TPK, in, coeffs)
}

// FieldCoeff lifts a field element to the non-negative integer coefficient
// TEval expects.
func FieldCoeff(e field.Element) *big.Int { return new(big.Int).SetUint64(e.Uint64()) }

// Plaintexts is a batch of field elements lifted to the integers TEnc and
// TEval take, backed by one slab of big.Ints and one of their words rather
// than by two objects per value. A member's secret contributions are wiped
// with Wipe once used; public coefficients need not be.
type Plaintexts struct {
	Ints  []*big.Int
	vals  []big.Int
	words []big.Word
}

// wordsPerElement is how many big.Words hold a field element.
const wordsPerElement = 64 / bits.UintSize

// FieldCoeffs is FieldCoeff over a vector, in one slab of each.
func FieldCoeffs(es []field.Element) Plaintexts {
	p := Plaintexts{
		Ints:  make([]*big.Int, len(es)),
		vals:  make([]big.Int, len(es)),
		words: make([]big.Word, wordsPerElement*len(es)),
	}
	for i, e := range es {
		end := wordsPerElement * (i + 1)
		w := p.words[end-wordsPerElement : end : end]
		v := e.Uint64()
		w[0] = big.Word(v)
		if wordsPerElement == 2 {
			w[1] = big.Word(v >> 32)
		}
		p.Ints[i] = p.vals[i].SetBits(w)
	}
	return p
}

// Wipe zeroes the plaintexts' words and detaches the integers from them.
func (p Plaintexts) Wipe() {
	clear(p.words)
	clear(p.vals)
	clear(p.Ints)
}

// BoundP is the public bound on a single field-element plaintext.
var BoundP = new(big.Int).SetUint64(field.Modulus)

// FieldBounds is n copies of BoundP: the public bounds of a posting of n
// fresh field-element ciphertexts.
func FieldBounds(n int) []*big.Int {
	bounds := make([]*big.Int, n)
	for i := range bounds {
		bounds[i] = BoundP
	}
	return bounds
}
