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
// public, so every party derives the same one. KFF distribution (one 256-bit
// secret per distinct recipient) has nothing to share a plaintext with and
// stays one opening per key.

// openList is what one reader opens in one step, with the static slot widths
// of r.lists in the same order, the key a Re-encrypt seals it to, and where
// the Re-encrypt stores the groups answering it.
type openList struct {
	cts    []tte.Ciphertext
	widths []int
	key    pke.PublicKey
	into   *[]group
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
// whose run-time bound outgrew its static slot fails the step.
func (r *run) packGroups(step string, lists []openList) ([][]group, error) {
	capacity := slotpack.Capacity(r.rt.TPK.MaxPlaintext())
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
		plan := slotpack.Plan(l.widths, capacity)
		out[i] = make([]group, len(plan))
		for g, pg := range plan {
			out[i][g].widths = pg.Widths
			tasks = append(tasks, task{list: i, group: g, cts: l.cts[pg.Start : pg.Start+len(pg.Widths)]})
		}
	}
	err := r.rt.Pfor(len(tasks), func(j int) error {
		tk := tasks[j]
		g := &out[tk.list][tk.group]
		var err error
		if g.ct, err = slotpack.Pack(r.p.params.TE, r.rt.TPK, tk.cts, g.widths); err != nil {
			return fmt.Errorf("%s: list %d, group %d: %w", step, tk.list, tk.group, err)
		}
		return nil
	})
	return out, err
}

// appendOpenings lists groups as a step's openings, to key (nil: to everyone).
func appendOpenings(open []committee.Opening, groups []group, key pke.PublicKey) []committee.Opening {
	for _, g := range groups {
		open = append(open, committee.Opening{Ct: g.ct, Key: key, Slots: len(g.widths)})
	}
	return open
}

// reencryptLists slot-packs every list, has committee c Re-encrypt each
// list's groups to its key (and reshare tsk to next, when non-nil), and
// stores the groups, each holding the envelopes that answer it, in the
// list's into.
func (r *run) reencryptLists(c *yoso.Committee, sp committee.Spec, lists []openList, next *yoso.Committee) error {
	groups, err := r.packGroups(sp.Label, lists)
	if err != nil {
		return err
	}
	var open []committee.Opening
	for j, gs := range groups {
		open = appendOpenings(open, gs, lists[j].key)
	}
	res, err := r.rt.TskStep(r.tsk, c, sp, open, next)
	if err != nil {
		return err
	}
	sealed := res.Sealed
	for j, gs := range groups {
		for g := range gs {
			gs[g].envs, sealed = sealed[0], sealed[1:]
		}
		*lists[j].into = gs
	}
	return nil
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
