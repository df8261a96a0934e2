package committee

import (
	"fmt"
	"math/big"

	"yosompc/internal/comm"
	"yosompc/internal/pke"
	"yosompc/internal/postlen"
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
// posting itself. A posting that seals anything starts with its posting
// key; its parts follow. Routing is positional: part j answers opening j of
// the step's list, a partial in the clear for a Decrypt and an envelope for
// a Re-encrypt, and the resharing envelopes follow, slot j sealed to member
// j+1 of the next committee. Each envelope is sealed at its part index,
// which every reader knows from the step's public layout.
type TskPost struct {
	buf []byte
	// ends[0] is where the posting key ends (0 when nothing is sealed) and
	// ends[j+1] where part j ends (part j+1 starts there). The offsets are
	// the writer's in-memory bookkeeping and never cross the wire.
	ends []int
}

// Encode implements Payload: the member wrote its posting in place.
func (p TskPost) Encode(*Runner) ([]byte, error) { return p.buf, nil }

// key returns a view of the posting key, and part a view of part j. Their
// capacities are clipped, so appending to a view can never write into its
// neighbour.
func (p TskPost) key() []byte { return p.buf[:p.ends[0]:p.ends[0]] }

func (p TskPost) part(j int) []byte { return p.buf[p.ends[j]:p.ends[j+1]:p.ends[j+1]] }

// Envelopes is one column of a tsk step's sealed parts: the envelope each
// verified member sealed as part part of its posting, in member order, and
// the posting key each sealed it under — views of the postings, the keys
// shared by every column of the step.
type Envelopes struct {
	envs, keys [][]byte
	part       int
}

// Size is the bytes the column's envelopes take on the board.
func (e Envelopes) Size() int {
	size := 0
	for _, env := range e.envs {
		size += len(env)
	}
	return size
}

// Tsk is the threshold secret key in flight between committees.
type Tsk struct {
	// shares are the current tsk committee's key shares while its TskStep
	// runs (the dealer's epoch-0 shares for the first), and handoff[j] the
	// resharing envelopes that step left for member j+1 of the next.
	shares  []tte.KeyShare
	handoff []Envelopes
}

// Opened is what a tsk step's verified members left on the board, transposed
// for its readers.
type Opened struct {
	// Partials[j] holds the encoded partial decryptions of opening j when it
	// was a Decrypt — views of the verified postings, in member order — and
	// Sealed[j] the envelopes answering it when it was a Re-encrypt; the
	// other one is empty.
	Partials [][][]byte
	Sealed   []Envelopes
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
	var size postlen.Posting
	sp.openings = len(open)
	for _, o := range open {
		sp.values += max(o.Slots, 1)
		if o.Key == nil {
			size.Partials++
		} else {
			size.Sealed++
		}
	}
	if next != nil {
		size.SubShares = next.N()
	}
	sp.Len = size.Len(r.Sizes)
	posts, err := Step(r, c, sp, func(i int) (TskPost, error) {
		if shares[i-1] == nil {
			return TskPost{}, fmt.Errorf("role %d has no tsk share", i)
		}
		return r.tskPost(shares[i-1], open, next, sp.Len)
	})
	if err != nil {
		return nil, err
	}

	// Transpose the verified postings into per-opening and per-recipient
	// views beside one posting-key view per member; one backing array
	// serves all of them.
	views := make([][]byte, (1+len(open)+size.SubShares)*len(posts))
	column := func(view func(TskPost) []byte) [][]byte {
		col := views[:len(posts):len(posts)]
		views = views[len(posts):]
		for m, p := range posts {
			col[m] = view(p.Payload)
		}
		return col
	}
	part := func(j int) [][]byte { return column(func(p TskPost) []byte { return p.part(j) }) }
	keys := column(TskPost.key)
	res := &Opened{
		Partials: make([][][]byte, len(open)),
		Sealed:   make([]Envelopes, len(open)),
		members:  make([]int, len(posts)),
	}
	for m, p := range posts {
		res.members[m] = p.Index
	}
	for j, o := range open {
		if o.Key == nil {
			res.Partials[j] = part(j)
		} else {
			res.Sealed[j] = Envelopes{envs: part(j), keys: keys, part: j}
		}
	}
	tsk.shares, tsk.handoff = nil, nil
	if next != nil {
		tsk.handoff = make([]Envelopes, size.SubShares)
		for j := range tsk.handoff {
			tsk.handoff[j] = Envelopes{envs: part(len(open) + j), keys: keys, part: len(open) + j}
		}
	}
	return res, nil
}

// tskPost writes one member's whole posting into a single buffer of the
// step's posting length size: the posting key when anything is sealed, then
// the partial decryptions of open — encoded in place when in the clear,
// sealed in place to the opening's key otherwise — followed by the
// resharing of sh to next's role keys. One pke.Sealer seals every envelope,
// so the posting carries one posting key and each envelope costs one key
// agreement. What gets sealed is encoded into one plaintext scratch, wiped
// after every use: the raw bytes carry the same secret as what they encode.
// On the real backend, whose widths are nominal, the buffers grow as the
// encodings need.
func (r *Runner) tskPost(sh tte.KeyShare, open []Opening, next *yoso.Committee, size int) (TskPost, error) {
	parts := make([]tte.PartialDec, len(open))
	var subs []tte.SubShare
	var to pke.PublicKey // any recipient: it picks the posting key's backend
	for j, o := range open {
		var err error
		if parts[j], err = r.TE.PartialDecrypt(r.TPK, sh, o.Ct); err != nil {
			return TskPost{}, err
		}
		if o.Key != nil {
			to = o.Key
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
		if len(subs) > 0 {
			to = next.Role(1).PublicKey()
		}
	}
	post := TskPost{buf: make([]byte, 0, size), ends: make([]int, 1, 1+len(open)+len(subs))}
	plain := make([]byte, 0, max(r.Sizes.Partial, r.Sizes.SubShare))
	var seal pke.Sealer
	if to != nil {
		var err error
		if post.buf, err = seal.AppendKey(post.buf, to); err != nil {
			return TskPost{}, err
		}
		post.ends[0] = len(post.buf)
	}

	// Opening j is part j; an envelope is sealed at its part index.
	for j, o := range open {
		var err error
		if o.Key != nil {
			plain, err = r.TE.AppendPartial(plain[:0], parts[j])
			if err == nil {
				post.buf, err = seal.AppendEncrypt(post.buf, j, o.Key, plain)
			}
			clear(plain)
		} else {
			post.buf, err = r.TE.AppendPartial(post.buf, parts[j]) //yosolint:owner a Decrypt opens to everyone: the partial is the public posting
		}
		if err != nil {
			return TskPost{}, err
		}
		post.ends = append(post.ends, len(post.buf))
	}
	for j, sub := range subs {
		if sub.To() != j+1 {
			return TskPost{}, fmt.Errorf("sub-share %d is addressed to member %d", j+1, sub.To())
		}
		var err error
		plain, err = r.TE.AppendSubShare(plain[:0], sub)
		if err == nil {
			post.buf, err = seal.AppendEncrypt(post.buf, len(post.ends)-1, next.Role(j+1).PublicKey(), plain)
		}
		clear(plain)
		if err != nil {
			return TskPost{}, err
		}
		post.ends = append(post.ends, len(post.buf))
	}
	return post, nil
}

// DecryptStep is TskStep followed by Decrypted, for a caller that needs no
// envelope of the step: it returns the integer plaintexts of the Decrypts in
// open, which the caller reduces into the field.
func (r *Runner) DecryptStep(tsk *Tsk, c *yoso.Committee, sp Spec, open []Opening, next *yoso.Committee) ([]*big.Int, error) {
	res, err := r.TskStep(tsk, c, sp, open, next)
	if err != nil {
		return nil, err
	}
	return r.Decrypted(sp.Label, open, res)
}

// Decrypted combines, for each Decrypt of the list open that res answers, a
// quorum of its verified partial decryptions into the integer plaintext; a
// Re-encrypt's position stays nil. Positions are independent, so the TDec
// fan-in runs on the worker pool, slot-indexed. The workers only read the
// shared postings.
func (r *Runner) Decrypted(label string, open []Opening, res *Opened) ([]*big.Int, error) {
	out := make([]*big.Int, len(open))
	err := r.Pfor(len(open), func(j int) error {
		if open[j].Key != nil {
			return nil
		}
		parts, err := quorum(r, res.Partials[j], r.TE.DecodePartial)
		if err != nil {
			// Nothing is skipped in the clear, so the partial that failed
			// is the one after those that decoded.
			return fmt.Errorf("%s: verified partial %d of member %d: %w", label, j, res.members[len(parts)], err)
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
// one posting, metered as setup bytes and sized by postlen, in which one
// pke.Sealer seals share i as part i under the receiving role's key. Each
// share's encoding is wiped once sealed. The caller additionally hands the
// shares over in-process.
func (r *Runner) DealShares(c *yoso.Committee, shares []tte.KeyShare) (*Tsk, error) {
	var seal pke.Sealer
	posting, err := seal.AppendKey(make([]byte, 0, postlen.Posting{KeyShares: len(shares)}.Len(r.Sizes)), c.Role(1).PublicKey())
	if err != nil {
		return nil, fmt.Errorf("sealing the dealer's delivery: %w", err)
	}
	for i, sh := range shares {
		data, err := r.TE.EncodeKeyShare(sh)
		if err == nil {
			posting, err = seal.AppendEncrypt(posting, i, c.Role(i+1).PublicKey(), data)
		}
		clear(data)
		if err != nil {
			return nil, fmt.Errorf("sealing dealer tsk share %d: %w", i+1, err)
		}
	}
	r.Board.Post("setup-dealer", comm.PhaseSetup, comm.CatReshare, posting)
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
		subs := openSealed(r, role.SecretKey(), tsk.handoff[i], r.TE.DecodeSubShare)
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
// board: it walks them in member order, opens them one by one and stops as
// soon as t+1 have opened. The paper's Decrypt, Re-encrypt and TKRec run on
// t+1 valid contributions, and the proof each poster attached is what makes
// any t+1 sufficient; the first t+1 in member order are also the ones
// TE.Combine and TE.RecoverShare would keep out of all n. Contributions
// beyond the quorum are never decrypted or parsed.
//
// quorum walks views — one verified posting's clear part each — which are
// public encodings under a verified proof, so one that fails to decode
// before the quorum is full is the error returned, beside the contributions
// that decoded before it. openSealed is the walk over envelopes, which never
// fails. Fewer than t+1 opened is not an error here: the caller's Combine or
// RecoverShare reports ErrTooFewPartials, which the caller wraps in
// ErrNotEnough.
func quorum[T any](r *Runner, views [][]byte, decode func(tte.PublicKey, []byte) (T, error)) ([]T, error) {
	got := make([]T, 0, r.TPK.T()+1)
	for _, view := range views[:min(len(views), cap(got))] {
		v, err := decode(r.TPK, view)
		if err != nil {
			return got, err
		}
		got = append(got, v)
	}
	return got, nil
}

// openSealed is quorum's sealed walk: it returns what the envelopes sealed
// to sk open and decode to, up to t+1 of them. Each is opened under its
// poster's posting key at the column's part index, which the reader knows
// from the step's layout and never takes from the bytes. One that does not
// open — wrong key, truncated, failed tag, undecodable plaintext — is
// skipped and the walk goes on: the proof cannot vouch for what only the
// recipient reads. Every envelope is opened into one plaintext scratch,
// wiped after each decode — the raw bytes carry the same secret as the
// partial decryption or key sub-share they encode — and over its whole
// capacity when the walk ends, so the walk allocates nothing but what it
// decodes.
func openSealed[T any](r *Runner, sk pke.SecretKey, col Envelopes, decode func(tte.PublicKey, []byte) (T, error)) []T {
	got := make([]T, 0, r.TPK.T()+1)
	var plain []byte
	for m, env := range col.envs {
		if len(got) == cap(got) {
			break
		}
		var err error
		plain, err = sk.AppendOpen(plain[:0], col.keys[m], col.part, env)
		if err != nil {
			continue
		}
		v, err := decode(r.TPK, plain)
		clear(plain)
		if err == nil {
			got = append(got, v)
		}
	}
	wipeCapacity(plain)
	return got
}

// wipeCapacity clears b up to its capacity, so no byte an open wrote into a
// scratch's spare room outlives it.
func wipeCapacity(b []byte) { clear(b[:cap(b)]) }

// CombineSealed is the recipient's side of Re-encrypt: decrypt a quorum of
// the partial decryptions sealed to sk and combine them into ct's integer
// plaintext.
func (r *Runner) CombineSealed(sk pke.SecretKey, col Envelopes, ct tte.Ciphertext) (*big.Int, error) {
	parts := openSealed(r, sk, col, r.TE.DecodePartial)
	v, err := r.TE.Combine(r.TPK, ct, parts)
	if err != nil {
		return nil, fmt.Errorf("%w: combining %d envelopes: %v", ErrNotEnough, len(col.envs), err)
	}
	return v, nil
}
