package committee

import (
	"fmt"
	"math/big"

	"yosompc/internal/comm"
	"yosompc/internal/pke"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// Opening is one ciphertext a tsk-holding committee opens: to everyone when
// Key is nil (paper Protocol 2, Decrypt), or to the holder of Key alone
// (Protocol 1, Re-encrypt).
type Opening struct {
	Ct  tte.Ciphertext
	Key pke.PublicKey
	// Slots is how many values Ct carries when its caller slot-packed it
	// (internal/slotpack), 0 for a plain ciphertext. The step does not look
	// inside: it only reports the count on its span.
	Slots int
}

// TskPost is the single message a tsk-holding member posts, held as the
// posting itself. Routing is positional: the step's Decrypt partials, then
// its Re-encrypt envelopes, both in list order, then the resharing envelopes,
// slot j sealed to member j+1 of the next committee.
type TskPost struct {
	buf []byte
	// ends[j] is where part j of buf ends (part j+1 starts there). The
	// offsets are the writer's in-memory bookkeeping and never cross the
	// wire.
	ends []int
}

// Encode implements Payload: the member wrote its posting in place.
func (p TskPost) Encode(*Runner) ([]byte, error) { return p.buf, nil }

// part returns a view of part j of the posting. Its capacity is clipped, so
// appending to a view can never write into the neighbouring part.
func (p TskPost) part(j int) []byte {
	start := 0
	if j > 0 {
		start = p.ends[j-1]
	}
	return p.buf[start:p.ends[j]:p.ends[j]]
}

// Tsk is the threshold secret key in flight between committees.
type Tsk struct {
	// shares are the current tsk committee's key shares while its TskStep
	// runs (the dealer's epoch-0 shares for the first), and handoff[j] the
	// resharing envelopes that step left for member j+1 of the next — views
	// of the verified postings.
	shares  []tte.KeyShare
	handoff [][][]byte
}

// Opened is what a tsk step's verified members left on the board, transposed
// for its readers.
type Opened struct {
	// Partials[j] holds the encoded partial decryptions of opening j when it
	// was a Decrypt, Sealed[j] the envelopes answering it when it was a
	// Re-encrypt — views of the verified postings, in member order; the
	// other one is nil.
	Partials [][][]byte
	Sealed   [][][]byte
	// members[m] is the committee slot of the member whose posting view m of
	// every opening lies in.
	members []int
}

// TskStep is the one thing a tsk-holding committee ever does: every member
// partially decrypts each opening with its share — in the clear, or sealed
// to the opening's key — and, when next is non-nil, reshares its tsk share
// to next's role keys. The committee DealShares served uses the dealer's
// shares; every later one first recovers its shares from the hand-off the
// previous TskStep left.
func (r *Runner) TskStep(tsk *Tsk, c *yoso.Committee, sp Spec, open []Opening, next *yoso.Committee) (*Opened, error) {
	if tsk.handoff != nil {
		if err := r.recoverShares(tsk, c, sp.Phase); err != nil {
			return nil, err
		}
	}
	shares := tsk.shares
	if len(shares) != c.N() {
		return nil, fmt.Errorf("%s: committee %s was handed no tsk shares", sp.Label, c.Name)
	}
	nClear, nNext := 0, 0
	sp.openings = len(open)
	for _, o := range open {
		if o.Key == nil {
			nClear++
		}
		sp.values += max(o.Slots, 1)
	}
	nSealed := len(open) - nClear
	if next != nil {
		nNext = next.N()
	}
	// slot[j] is the part of every posting that answers opening j: the
	// Decrypts come first, then the Re-encrypts.
	slot := make([]int, len(open))
	clearSlot, sealedSlot := 0, nClear
	for j, o := range open {
		if o.Key == nil {
			slot[j], clearSlot = clearSlot, clearSlot+1
		} else {
			slot[j], sealedSlot = sealedSlot, sealedSlot+1
		}
	}
	// A malicious member's garbage occupies one ciphertext per partial and
	// one sealed ciphertext per envelope.
	ctSize := r.TPK.CiphertextSize()
	garbSize := nClear*ctSize + (nSealed+nNext)*(ctSize+pke.EnvelopeOverhead)

	posts, err := Step(r, c, sp, func(i int) (TskPost, error) {
		if shares[i-1] == nil {
			return TskPost{}, fmt.Errorf("role %d has no tsk share", i)
		}
		return r.tskPost(shares[i-1], open, next)
	}, garbSize)
	if err != nil {
		return nil, err
	}

	// Transpose the verified postings into per-opening and per-recipient
	// views; one backing array serves all of them.
	views := make([][]byte, (len(open)+nNext)*len(posts))
	column := func(part int) [][]byte {
		col := views[:len(posts):len(posts)]
		views = views[len(posts):]
		for m, p := range posts {
			col[m] = p.Payload.part(part)
		}
		return col
	}
	res := &Opened{
		Partials: make([][][]byte, len(open)),
		Sealed:   make([][][]byte, len(open)),
		members:  make([]int, len(posts)),
	}
	for m, p := range posts {
		res.members[m] = p.Index
	}
	for j, o := range open {
		if o.Key == nil {
			res.Partials[j] = column(slot[j])
		} else {
			res.Sealed[j] = column(slot[j])
		}
	}
	tsk.shares, tsk.handoff = nil, nil
	if next != nil {
		tsk.handoff = make([][][]byte, nNext)
		for j := range tsk.handoff {
			tsk.handoff[j] = column(len(open) + j)
		}
	}
	return res, nil
}

// tskPost writes one member's whole posting into a single buffer sized up
// front: the partial decryptions of open — encoded in place when in the
// clear, sealed in place to the opening's key otherwise — followed by the
// resharing of sh to next's role keys. What gets sealed is encoded into one
// plaintext scratch that is wiped after every use: the raw bytes carry the
// same secret as what they encode.
func (r *Runner) tskPost(sh tte.KeyShare, open []Opening, next *yoso.Committee) (TskPost, error) {
	ctSize := r.TPK.CiphertextSize()
	var subs []tte.SubShare
	size, plainSize := 0, ctSize
	for _, o := range open {
		size += ctSize
		if o.Key != nil {
			size += pke.EnvelopeOverhead
		}
	}
	if next != nil {
		var err error
		if subs, err = r.TE.Reshare(r.TPK, sh); err != nil {
			return TskPost{}, err
		}
		if len(subs) != next.N() {
			return TskPost{}, fmt.Errorf("resharing has %d sub-shares for %d next members", len(subs), next.N())
		}
		for _, sub := range subs {
			size += sub.Size() + pke.EnvelopeOverhead
			plainSize = max(plainSize, sub.Size())
		}
	}
	post := TskPost{buf: make([]byte, 0, size), ends: make([]int, 0, len(open)+len(subs))}
	plain := make([]byte, 0, plainSize)

	// Parts are written in wire order, so the Decrypts go first.
	for _, sealed := range []bool{false, true} {
		for _, o := range open {
			if (o.Key != nil) != sealed {
				continue
			}
			part, err := r.TE.PartialDecrypt(r.TPK, sh, o.Ct)
			if err != nil {
				return TskPost{}, err
			}
			if sealed {
				plain, err = r.TE.AppendPartial(plain[:0], part)
				if err == nil {
					post.buf, err = o.Key.AppendEncrypt(post.buf, plain)
				}
				clear(plain)
			} else {
				post.buf, err = r.TE.AppendPartial(post.buf, part) //yosolint:owner a Decrypt opens to everyone: the partial is the public posting
			}
			if err != nil {
				return TskPost{}, err
			}
			post.ends = append(post.ends, len(post.buf))
		}
	}
	for j, sub := range subs {
		if sub.To() != j+1 {
			return TskPost{}, fmt.Errorf("sub-share %d is addressed to member %d", j+1, sub.To())
		}
		var err error
		plain, err = r.TE.AppendSubShare(plain[:0], sub)
		if err == nil {
			post.buf, err = next.Role(j+1).PublicKey().AppendEncrypt(post.buf, plain)
		}
		clear(plain)
		if err != nil {
			return TskPost{}, err
		}
		post.ends = append(post.ends, len(post.buf))
	}
	return post, nil
}

// DecryptStep is TskStep for a list that is all Decrypts: everyone combines
// a quorum of each ciphertext's verified partial decryptions, and it returns
// the integer plaintexts, which the caller reduces into the field.
func (r *Runner) DecryptStep(tsk *Tsk, c *yoso.Committee, sp Spec, open []Opening, next *yoso.Committee) ([]*big.Int, error) {
	res, err := r.TskStep(tsk, c, sp, open, next)
	if err != nil {
		return nil, err
	}
	// Positions are independent, so the TDec fan-in runs on the worker
	// pool, slot-indexed. The workers only read the shared postings.
	out := make([]*big.Int, len(open))
	err = r.Pfor(len(open), func(j int) error {
		parts, err := quorum(r, nil, res.Partials[j], r.TE.DecodePartial)
		if err != nil {
			// Nothing is skipped in the clear, so the partial that failed
			// is the one after those that decoded.
			return fmt.Errorf("%s: verified partial %d of member %d: %w", sp.Label, j, res.members[len(parts)], err)
		}
		if out[j], err = r.TE.Combine(r.TPK, open[j].Ct, parts); err != nil {
			return fmt.Errorf("%w: opening %d: %v", ErrNotEnough, j, err)
		}
		return nil
	})
	return out, err
}

// DealShares is the trusted dealer's delivery of the epoch-0 tsk shares to
// the first tsk-holding committee (the paper's "give tsk_i to C_{1,i}"):
// each share travels as a PKE envelope sealed under the receiving role's
// key, metered as setup bytes. The driver additionally hands the shares over
// in-process.
func (r *Runner) DealShares(c *yoso.Committee, shares []tte.KeyShare) (*Tsk, error) {
	for i, sh := range shares {
		data, err := r.TE.EncodeKeyShare(sh)
		if err != nil {
			return nil, fmt.Errorf("encoding dealer tsk share %d: %w", i+1, err)
		}
		env, err := c.Role(i + 1).PublicKey().Encrypt(data)
		if err != nil {
			return nil, fmt.Errorf("sealing dealer tsk share %d: %w", i+1, err)
		}
		r.Board.Post("setup-dealer", comm.PhaseSetup, comm.CatReshare, env)
	}
	return &Tsk{shares: shares}, nil
}

// recoverShares lets each member of c rebuild its tsk share from a quorum of
// the envelopes the previous TskStep handed off (TKRec after decrypting with
// the role secret key). Crashed members recover nothing. Members are
// independent, so they run on the worker pool, slot-indexed; the error
// reported is the lowest-index member's whatever the worker count.
func (r *Runner) recoverShares(tsk *Tsk, c *yoso.Committee, phase comm.Phase) error {
	tsk.shares = make([]tte.KeyShare, c.N())
	errs := make([]error, c.N())
	if err := r.Pfor(c.N(), func(i int) error {
		role := c.Roles[i]
		if role.Behavior == yoso.FailStop {
			return nil // crashed before reading
		}
		subs, _ := quorum(r, role.SecretKey(), tsk.handoff[i], r.TE.DecodeSubShare) // a sealed walk skips, it never fails
		sh, err := r.TE.RecoverShare(r.TPK, i+1, subs)
		if err != nil {
			errs[i] = fmt.Errorf("%w: recovering tsk share for %s: %v", ErrNotEnough, role.Name(), err)
			return nil
		}
		tsk.shares[i] = sh
		if r.ShareRecovered != nil {
			r.ShareRecovered(phase)
		}
		return nil
	}); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// quorum is how every reader takes a committee's contributions off the
// board: it walks views — one verified posting's part each, in member order
// — opens them one by one and stops as soon as t+1 have opened. The paper's
// Decrypt, Re-encrypt and TKRec run on t+1 valid contributions, and the proof
// each poster attached is what makes any t+1 sufficient; the first t+1 in
// member order are also the ones TE.Combine and TE.RecoverShare would keep
// out of all n. Contributions beyond the quorum are never decrypted or
// parsed.
//
// With sk non-nil the views are envelopes sealed to sk. One that does not
// open — wrong key, truncated, failed tag, undecodable plaintext — is
// skipped and the walk goes on: the proof cannot vouch for what only the
// recipient reads. With sk nil the views are public encodings under a
// verified proof, so one that fails to decode before the quorum is full is
// the error returned, beside the contributions that decoded before it; a
// sealed walk never fails. Fewer than t+1 opened is not an error here: the
// caller's Combine or RecoverShare reports ErrTooFewPartials, which the
// caller wraps in ErrNotEnough.
func quorum[T any](r *Runner, sk pke.SecretKey, views [][]byte, decode func(tte.PublicKey, []byte) (T, error)) ([]T, error) {
	need := r.TPK.T() + 1
	got := make([]T, 0, need)
	for _, view := range views {
		if len(got) == need {
			break
		}
		if sk == nil {
			v, err := decode(r.TPK, view)
			if err != nil {
				return got, err
			}
			got = append(got, v)
		} else if v, err := openSealed(r, sk, view, decode); err == nil {
			got = append(got, v)
		}
	}
	return got, nil
}

// openSealed opens one envelope and decodes what was sealed in it, wiping the
// decrypted plaintext before returning — the raw bytes carry the same secret
// as the partial decryption or key sub-share they encode and must not outlive
// the decode.
func openSealed[T any](r *Runner, sk pke.SecretKey, env []byte, decode func(tte.PublicKey, []byte) (T, error)) (T, error) {
	data, err := sk.Decrypt(env)
	if err != nil {
		var none T
		return none, err
	}
	defer clear(data)
	return decode(r.TPK, data)
}

// CombineSealed is the recipient's side of Re-encrypt: decrypt a quorum of
// the partial decryptions sealed to sk and combine them into ct's integer
// plaintext.
func (r *Runner) CombineSealed(sk pke.SecretKey, envs [][]byte, ct tte.Ciphertext) (*big.Int, error) {
	parts, _ := quorum(r, sk, envs, r.TE.DecodePartial) // a sealed walk skips, it never fails
	v, err := r.TE.Combine(r.TPK, ct, parts)
	if err != nil {
		return nil, fmt.Errorf("%w: combining %d envelopes: %v", ErrNotEnough, len(envs), err)
	}
	return v, nil
}
