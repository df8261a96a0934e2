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
	// Role is the 1-based slot of the role Key belongs to when the opening
	// is addressed to a role of a committee the size of the tsk committee,
	// which then answers it from that role's window only (see window); 0,
	// and always for a Decrypt, has every member answer.
	Role int
	// Slots is how many values Ct carries when its caller slot-packed it
	// (internal/slotpack), 0 for a plain ciphertext. The step does not look
	// inside: it only reports the count on its span.
	Slots int
}

// window gives the members that answer an opening addressed to role of a
// committee of n, in the order its reader walks them: member first and
// the size − 1 after it, cyclically. A role's window is W_role = {role, …,
// role+s−1} mod n, so every member answers exactly s of any n roles; an
// opening addressed to no role is answered by all n, from member 1.
func window(n, s, role int) (first, size int) {
	if role == 0 {
		return 1, n
	}
	return role, s
}

// answers reports whether member of a committee of n answers an opening
// addressed to role under windows of s.
func answers(n, s, role, member int) bool { return role == 0 || (member-role+n)%n < s }

// TskPost is the single message a tsk-holding member posts, held as the
// posting itself. A posting that seals anything starts with its posting
// key; its parts follow. Routing is positional: the member's parts answer,
// in the step's order, the openings it answers — every Decrypt and every
// Re-encrypt addressed to no role, and those addressed to a role whose
// window holds the member — a partial in the clear for a Decrypt and an
// envelope for a Re-encrypt; the resharing envelopes follow, slot j sealed
// to member j+1 of the next committee. Each envelope is sealed at its
// index in the step (opening j at j, sub-share j after the last opening),
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
// verified member that answers it sealed at index part, in window order,
// and the posting key each sealed it under — views of the postings, the
// keys a slice of one column the whole step shares.
type Envelopes struct {
	envs, keys [][]byte
	part       int
}

// Len is how many envelopes the column holds.
func (e Envelopes) Len() int { return len(e.envs) }

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
	// every Decrypt lies in: every member answers a Decrypt.
	members []int
}

// TskStep is the one thing a tsk-holding committee ever does: every member
// partially decrypts each opening it answers with its share — in the
// clear, or sealed to the opening's key — and, when next is non-nil,
// reshares its tsk share to next's role keys. A Re-encrypt addressed to a
// role is answered by that role's window of postlen.Window(n, t, r.Quorum)
// members (window), every other opening by all n; the hand-off is never
// windowed, since every recipient must recover its share from one set of
// senders. The openings addressed to roles must give every member as many
// to answer, so that every posting has the step's one length. The
// committee DealShares served uses the dealer's shares; every later one
// first recovers its shares from the hand-off the previous TskStep left.
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
	n, s := c.N(), postlen.Window(c.N(), r.TPK.T(), r.Quorum)
	size, err := answered(open, n, s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.Label, err)
	}
	sp.openings = len(open)
	for _, o := range open {
		sp.values += max(o.Slots, 1)
	}
	if next != nil {
		size.SubShares = next.N()
	}
	sp.Len = size.Len(r.Sizes)
	posts, err := Step(r, c, sp, func(i int) (TskPost, error) {
		if shares[i-1] == nil {
			return TskPost{}, fmt.Errorf("role %d has no tsk share", i)
		}
		return r.tskPost(i, shares[i-1], open, n, s, next, sp.Len)
	})
	if err != nil {
		return nil, err
	}

	// Transpose the verified postings into one column per opening and per
	// hand-off recipient. at[m] is where member m's posting is in posts
	// (−1: not verified) and read[x] the next part of posting x no column
	// holds yet: each column walks its members in window order and takes
	// each one's next part, so every member's parts are taken in the order
	// it wrote them. A window's verified members follow each other
	// cyclically in posts, so keys, the posting-key column twice over,
	// holds any column's keys as one slice. One backing array serves every
	// column.
	at := make([]int, n+1)
	for m := range at {
		at[m] = -1
	}
	keys := make([][]byte, 2*len(posts))
	for x, p := range posts {
		at[p.Index] = x
		keys[x], keys[len(posts)+x] = p.Payload.key(), p.Payload.key()
	}
	views := make([][]byte, 0, (size.Partials+size.Sealed+size.SubShares)*len(posts))
	read := make([]int, len(posts))
	column := func(role int) (col [][]byte, from int) {
		first, members := window(n, s, role)
		start := len(views)
		for d := range members {
			if x := at[(first-1+d)%n+1]; x >= 0 {
				if len(views) == start {
					from = x
				}
				views = append(views, posts[x].Payload.part(read[x]))
				read[x]++
			}
		}
		return views[start:len(views):len(views)], from
	}
	sealed := func(role, part int) Envelopes {
		col, from := column(role)
		return Envelopes{envs: col, keys: keys[from : from+len(col)], part: part}
	}
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
			res.Partials[j], _ = column(0)
		} else {
			res.Sealed[j] = sealed(o.Role, j)
		}
	}
	tsk.shares, tsk.handoff = nil, nil
	if next != nil {
		tsk.handoff = make([]Envelopes, size.SubShares)
		for j := range tsk.handoff {
			tsk.handoff[j] = sealed(0, len(open)+j)
		}
	}
	return res, nil
}

// answered counts what each member of a committee of n answers of open
// under windows of s: the Decrypts in the clear, the Re-encrypts sealed.
// It refuses a Decrypt addressed to a role, a role outside the committee,
// and openings whose windows would give two members different counts.
func answered(open []Opening, n, s int) (postlen.Posting, error) {
	var size postlen.Posting
	perRole := make([]int, n+1)
	for j, o := range open {
		switch {
		case o.Role < 0 || o.Role > n:
			return size, fmt.Errorf("opening %d is addressed to role %d of a committee of %d", j, o.Role, n)
		case o.Key == nil && o.Role != 0:
			return size, fmt.Errorf("opening %d is a Decrypt addressed to role %d", j, o.Role)
		case o.Key == nil:
			size.Partials++
		default:
			perRole[o.Role]++
		}
	}
	// Member m answers the roles m, m−1, …, m−s+1 (mod n): slide that
	// window over the members and keep every count equal to member 1's.
	first := 0
	for m := 1; m <= n; m++ {
		count := perRole[0]
		for d := range s {
			count += perRole[(m-1-d+n)%n+1]
		}
		if m == 1 {
			first = count
		} else if count != first {
			return size, fmt.Errorf("member %d would answer %d Re-encrypts and member 1 %d: the openings addressed to roles are unbalanced", m, count, first)
		}
	}
	size.Sealed = first
	return size, nil
}

// tskPost writes member i's whole posting into a single buffer of the
// step's posting length size: the posting key when anything is sealed, then
// the partial decryptions of the openings it answers (answers, under
// windows of s in a committee of n) — encoded in place when in the clear,
// sealed in place to the opening's key otherwise — followed by the
// resharing of sh to next's role keys. One pke.Sealer seals every envelope,
// so the posting carries one posting key and each envelope costs one key
// agreement. What gets sealed is encoded into one plaintext scratch, wiped
// after every use: the raw bytes carry the same secret as what they encode.
// On the real backend, whose widths are nominal, the buffers grow as the
// encodings need.
func (r *Runner) tskPost(i int, sh tte.KeyShare, open []Opening, n, s int, next *yoso.Committee, size int) (TskPost, error) {
	mine := make([]int, 0, len(open)) // the openings member i answers
	for j, o := range open {
		if answers(n, s, o.Role, i) {
			mine = append(mine, j)
		}
	}
	parts := make([]tte.PartialDec, len(mine))
	var subs []tte.SubShare
	var to pke.PublicKey // any recipient: it picks the posting key's backend
	for p, j := range mine {
		var err error
		if parts[p], err = r.TE.PartialDecrypt(r.TPK, sh, open[j].Ct); err != nil {
			return TskPost{}, err
		}
		if open[j].Key != nil {
			to = open[j].Key
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
	post := TskPost{buf: make([]byte, 0, size), ends: make([]int, 1, 1+len(mine)+len(subs))}
	plain := make([]byte, 0, max(r.Sizes.Partial, r.Sizes.SubShare))
	var seal pke.Sealer
	if to != nil {
		var err error
		if post.buf, err = seal.AppendKey(post.buf, to); err != nil {
			return TskPost{}, err
		}
		post.ends[0] = len(post.buf)
	}

	// An envelope answering opening j is sealed at j.
	for p, j := range mine {
		var err error
		if key := open[j].Key; key != nil {
			plain, err = r.TE.AppendPartial(plain[:0], parts[p])
			if err == nil {
				post.buf, err = seal.AppendEncrypt(post.buf, j, key, plain)
			}
			clear(plain)
		} else {
			post.buf, err = r.TE.AppendPartial(post.buf, parts[p]) //yosolint:owner a Decrypt opens to everyone: the partial is the public posting
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
			post.buf, err = seal.AppendEncrypt(post.buf, len(open)+j, next.Role(j+1).PublicKey(), plain)
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
