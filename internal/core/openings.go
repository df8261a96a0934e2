package core

import (
	"fmt"
	"math/big"

	"yosompc/internal/committee"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/slotpack"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// Every set of ciphertexts one reader opens in one tsk step is slot-packed
// before the step (internal/slotpack): everyone computes the group
// ciphertexts, the committee partially decrypts one ciphertext per group, and
// the reader combines once per group and splits the integer. The layout comes
// from the run's static width lists (r.lists) and the key's capacity, both
// public, so every party derives the same one. A KFF secret (one 256-bit
// secret per distinct recipient) has nothing to share a plaintext with: it is
// one ciphertext in one slot, a group that is the ciphertext itself.

// openList is what one reader opens, with the static slot widths of r.lists
// in the same order, the key a Re-encrypt seals it to (nil: it is opened to
// everyone, or a later step seals it), and where its groups are kept.
type openList struct {
	cts    []tte.Ciphertext
	widths []int
	key    pke.PublicKey
	// role is the reader's slot when it is a layer role, whose Re-encrypts
	// its window answers (committee.Opening.Role), 0 for a client.
	role int
	into *[]group
}

// sealing is one reader's packed groups, the key a Re-encrypt seals them
// to and the reader's role slot (0: a client).
type sealing struct {
	groups []group
	key    pke.PublicKey
	role   int
}

// group is one slot-packed opening.
type group struct {
	ct     tte.Ciphertext
	widths []int
	// envs are the envelopes answering a Re-encrypt of ct, one per verified
	// member — views of the step's postings.
	envs committee.Envelopes
}

// packGroups plans every list into groups and forms the group ciphertexts on
// the worker pool. out[i] are list i's groups in opening order. A ciphertext
// whose run-time bound outgrew its static slot fails the step; the error
// names the first such group in opening order, whichever worker met it
// first.
func (r *run) packGroups(step string, lists []openList) ([][]group, error) {
	type task struct {
		list, group int
		cts         []tte.Ciphertext
	}
	var tasks []task
	out := make([][]group, len(lists))
	for i, l := range lists {
		if len(l.cts) != len(l.widths) {
			return nil, fmt.Errorf("%s: list %d has %d ciphertexts for %d planned slots", step, i, len(l.cts), len(l.widths))
		}
		plan := slotpack.Plan(l.widths, r.rt.Sizes.SlotBits)
		out[i] = make([]group, len(plan))
		for g, pg := range plan {
			out[i][g].widths = pg.Widths
			tasks = append(tasks, task{list: i, group: g, cts: l.cts[pg.Start : pg.Start+len(pg.Widths)]})
		}
	}
	errs := make([]error, len(tasks))
	err := r.rt.Pfor(len(tasks), func(j int) error {
		tk := tasks[j]
		g := &out[tk.list][tk.group]
		var err error
		if g.ct, err = slotpack.Pack(r.p.params.TE, r.rt.TPK, tk.cts, g.widths); err != nil {
			errs[j] = fmt.Errorf("%s: list %d, group %d: %w", step, tk.list, tk.group, err)
		}
		return nil
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return out, err
}

// appendOpenings lists groups as a step's openings, to key (nil: to
// everyone) of role slot role (0: no role).
func appendOpenings(open []committee.Opening, groups []group, key pke.PublicKey, role int) []committee.Opening {
	for _, g := range groups {
		open = append(open, committee.Opening{Ct: g.ct, Key: key, Role: role, Slots: len(g.widths)})
	}
	return open
}

// packLists slot-packs every list into the groups its into keeps and
// returns the sealings of those with a key.
func (r *run) packLists(step string, lists []openList) ([]sealing, error) {
	groups, err := r.packGroups(step, lists)
	if err != nil {
		return nil, err
	}
	var seals []sealing
	for j, gs := range groups {
		*lists[j].into = gs
		if lists[j].key != nil {
			seals = append(seals, sealing{groups: gs, key: lists[j].key, role: lists[j].role})
		}
	}
	return seals, nil
}

// tskStep has committee c Decrypt the groups dec to everyone and Re-encrypt
// each sealing's groups to its key, in that order, in one posting per member
// (and reshare tsk to next, when non-nil). It stores in each sealed group the
// envelopes that answer it and returns dec's opened integers.
func (r *run) tskStep(c *yoso.Committee, sp committee.Spec, dec []group, seals []sealing, next *yoso.Committee) ([]*big.Int, error) {
	open := appendOpenings(nil, dec, nil, 0)
	for _, s := range seals {
		open = appendOpenings(open, s.groups, s.key, s.role)
	}
	res, err := r.rt.TskStep(r.tsk, c, sp, open, next)
	if err != nil {
		return nil, err
	}
	sealed := res.Sealed[len(dec):]
	for _, s := range seals {
		for g := range s.groups {
			s.groups[g].envs, sealed = sealed[0], sealed[1:]
		}
	}
	return r.rt.Decrypted(sp.Label, open[:len(dec)], res)
}

// splitGroup cuts a group's opened integer into its slots' field values.
func splitGroup(v *big.Int, widths []int) ([]field.Element, error) {
	ints, err := slotpack.Split(v, widths)
	if err != nil {
		return nil, err
	}
	vals := make([]field.Element, len(widths))
	for l := range widths {
		vals[l] = field.FromBig(ints[l])
	}
	return vals, nil
}

// openGroups is the reader's side of a packed Re-encrypt: per group one
// envelope quorum and one Combine, then the split. It returns the values of
// all groups in opening order.
func (r *run) openGroups(sk pke.SecretKey, groups []group) ([]field.Element, error) {
	var out []field.Element
	for g := range groups {
		v, err := r.rt.CombineSealed(sk, groups[g].envs, groups[g].ct)
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", g, err)
		}
		vals, err := splitGroup(v, groups[g].widths) //yosolint:vartime reader-side: the branch is Split's refusal of an integer that runs past its slots, taken by the opening's designated recipient and only to abort the run
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", g, err)
		}
		out = append(out, vals...)
	}
	return out, nil
}
