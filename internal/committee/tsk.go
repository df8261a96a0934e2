package committee

import (
	"fmt"
	"math/big"
	"slices"

	"yosompc/internal/comm"
	"yosompc/internal/field"
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
}

// TskPost is the single message a tsk-holding member posts. Routing is
// positional: Clear and Sealed answer the step's Decrypt and Re-encrypt
// openings in list order, and Reshare[j] is sealed to member j+1 of the next
// committee.
type TskPost struct {
	Clear   []tte.PartialDec
	Sealed  []pke.Ciphertext
	Reshare []pke.Ciphertext
}

// Encode implements Payload: partials, then envelopes, then the resharing.
func (p TskPost) Encode(r *Runner) ([]byte, error) {
	envs := slices.Concat(p.Sealed, p.Reshare)
	size := 0 // capacity hint only; what is metered is len(out)
	for _, part := range p.Clear {
		size += part.Size()
	}
	for _, env := range envs {
		size += env.Size()
	}
	out := make([]byte, 0, size)
	for _, part := range p.Clear {
		enc, err := r.TE.EncodePartial(part)
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
	}
	for _, env := range envs {
		enc, err := r.PKE.EncodeCiphertext(env)
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
	}
	return out, nil
}

// Tsk is the threshold secret key in flight between committees.
type Tsk struct {
	// shares are the current tsk committee's key shares while its TskStep
	// runs (the dealer's epoch-0 shares for the first), and handoff[j] the
	// resharing envelopes that step left for member j+1 of the next.
	shares  []tte.KeyShare
	handoff [][]pke.Ciphertext
}

// Opened is what a tsk step's verified members left on the board, transposed
// for its readers.
type Opened struct {
	// Partials[j] holds the partial decryptions of opening j when it was a
	// Decrypt, Sealed[j] the envelopes answering it when it was a
	// Re-encrypt; the other one is nil.
	Partials [][]tte.PartialDec
	Sealed   [][]pke.Ciphertext
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
	nSealed, nNext := 0, 0
	for _, o := range open {
		if o.Key != nil {
			nSealed++
		}
	}
	if next != nil {
		nNext = next.N()
	}
	// A malicious member's garbage occupies one ciphertext per partial and
	// one sealed ciphertext per envelope.
	ctSize := r.TPK.CiphertextSize()
	garbSize := (len(open)-nSealed)*ctSize + (nSealed+nNext)*(ctSize+pke.EnvelopeOverhead)

	posts, err := Step(r, c, sp, func(i int) (TskPost, error) {
		var post TskPost
		sh := shares[i-1]
		if sh == nil {
			return post, fmt.Errorf("role %d has no tsk share", i)
		}
		for _, o := range open {
			part, err := r.TE.PartialDecrypt(r.TPK, sh, o.Ct)
			if err != nil {
				return post, err
			}
			if o.Key == nil {
				post.Clear = append(post.Clear, part)
				continue
			}
			data, err := r.TE.EncodePartial(part)
			if err != nil {
				return post, err
			}
			env, err := o.Key.Encrypt(data)
			if err != nil {
				return post, err
			}
			post.Sealed = append(post.Sealed, env)
		}
		if next == nil {
			return post, nil
		}
		subs, err := r.TE.Reshare(r.TPK, sh)
		if err != nil {
			return post, err
		}
		post.Reshare = make([]pke.Ciphertext, nNext)
		for _, sub := range subs {
			data, err := r.TE.EncodeSubShare(sub)
			if err != nil {
				return post, err
			}
			if post.Reshare[sub.To()-1], err = next.Role(sub.To()).PublicKey().Encrypt(data); err != nil {
				return post, err
			}
		}
		return post, nil
	}, garbSize)
	if err != nil {
		return nil, err
	}

	res := &Opened{
		Partials: make([][]tte.PartialDec, len(open)),
		Sealed:   make([][]pke.Ciphertext, len(open)),
	}
	ci, si := 0, 0 // next slot in the posts' Clear and Sealed lists
	for j, o := range open {
		if o.Key == nil {
			res.Partials[j] = column(posts, func(p TskPost) []tte.PartialDec { return p.Clear }, ci)
			ci++
		} else {
			res.Sealed[j] = column(posts, func(p TskPost) []pke.Ciphertext { return p.Sealed }, si)
			si++
		}
	}
	tsk.shares, tsk.handoff = nil, nil
	if next != nil {
		tsk.handoff = make([][]pke.Ciphertext, nNext)
		for j := range tsk.handoff {
			tsk.handoff[j] = column(posts, func(p TskPost) []pke.Ciphertext { return p.Reshare }, j)
		}
	}
	return res, nil
}

// DecryptStep is TskStep for a list that is all Decrypts: everyone combines
// each ciphertext's verified partial decryptions, and it returns the
// plaintexts reduced into the field.
func (r *Runner) DecryptStep(tsk *Tsk, c *yoso.Committee, sp Spec, cts []tte.Ciphertext, next *yoso.Committee) ([]field.Element, error) {
	open := make([]Opening, len(cts))
	for j, ct := range cts {
		open[j].Ct = ct
	}
	res, err := r.TskStep(tsk, c, sp, open, next)
	if err != nil {
		return nil, err
	}
	// Positions are independent, so the TDec fan-in runs on the worker
	// pool, slot-indexed.
	out := make([]field.Element, len(cts))
	err = r.Pfor(len(cts), func(j int) error {
		v, err := r.TE.Combine(r.TPK, cts[j], res.Partials[j])
		if err != nil {
			return fmt.Errorf("%w: opening %d: %v", ErrNotEnough, j, err)
		}
		out[j] = field.FromBig(v)
		return nil
	})
	return out, err
}

// column collects slot j of one TskPost part across the verified posts.
func column[T any](posts []Post[TskPost], part func(TskPost) []T, j int) []T {
	out := make([]T, len(posts))
	for m, p := range posts {
		out[m] = part(p.Payload)[j]
	}
	return out
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
		ct, err := c.Role(i + 1).PublicKey().Encrypt(data)
		if err != nil {
			return nil, fmt.Errorf("sealing dealer tsk share %d: %w", i+1, err)
		}
		enc, err := r.PKE.EncodeCiphertext(ct)
		if err != nil {
			return nil, fmt.Errorf("encoding dealer envelope %d: %w", i+1, err)
		}
		r.Board.Post("setup-dealer", comm.PhaseSetup, comm.CatReshare, enc, ct)
	}
	return &Tsk{shares: shares}, nil
}

// recoverShares lets each member of c rebuild its tsk share from the
// envelopes the previous TskStep handed off (TKRec after decrypting with the
// role secret key). Crashed members recover nothing.
func (r *Runner) recoverShares(tsk *Tsk, c *yoso.Committee, phase comm.Phase) error {
	tsk.shares = make([]tte.KeyShare, c.N())
	for i, role := range c.Roles {
		if role.Behavior == yoso.FailStop {
			continue // crashed before reading
		}
		var subs []tte.SubShare
		for _, env := range tsk.handoff[i] {
			// Undecryptable envelopes are skipped; GOD relies on the
			// honest majority of them.
			if sub, err := r.openSubShare(role.SecretKey(), env); err == nil {
				subs = append(subs, sub)
			}
		}
		sh, err := r.TE.RecoverShare(r.TPK, i+1, subs)
		if err != nil {
			return fmt.Errorf("%w: recovering tsk share for %s: %v", ErrNotEnough, role.Name(), err)
		}
		tsk.shares[i] = sh
		if r.ShareRecovered != nil {
			r.ShareRecovered(phase)
		}
	}
	return nil
}

// openSubShare opens one hand-off envelope and decodes the key sub-share,
// wiping the decrypted plaintext before returning — the raw bytes carry the
// same secret as the sub-share and must not outlive the decode.
func (r *Runner) openSubShare(sk pke.SecretKey, env pke.Ciphertext) (tte.SubShare, error) {
	data, err := sk.Decrypt(env)
	if err != nil {
		return nil, err
	}
	defer clear(data)
	return r.TE.DecodeSubShare(r.TPK, data)
}

// CombineSealed is the recipient's side of Re-encrypt: decrypt the partial
// decryptions sealed to sk and combine them into ct's integer plaintext.
func (r *Runner) CombineSealed(sk pke.SecretKey, envs []pke.Ciphertext, ct tte.Ciphertext) (*big.Int, error) {
	parts := make([]tte.PartialDec, 0, len(envs))
	for _, env := range envs {
		if part, err := r.openPartial(sk, env); err == nil {
			parts = append(parts, part)
		}
	}
	v, err := r.TE.Combine(r.TPK, ct, parts)
	if err != nil {
		return nil, fmt.Errorf("%w: combining %d envelopes: %v", ErrNotEnough, len(envs), err)
	}
	return v, nil
}

// openPartial is openSubShare for a sealed partial decryption.
func (r *Runner) openPartial(sk pke.SecretKey, env pke.Ciphertext) (tte.PartialDec, error) {
	data, err := sk.Decrypt(env)
	if err != nil {
		return nil, err
	}
	defer clear(data)
	return r.TE.DecodePartial(r.TPK, data)
}
