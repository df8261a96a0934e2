package committee

import (
	"context"
	"fmt"
	"math/big"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/parallel"
	"yosompc/internal/postlen"
	"yosompc/internal/slotpack"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// EncryptRandom draws count fresh field elements in one read and encrypts
// them under tpk: one member's contribution to a jointly random vector. The
// plaintexts are the member's secret: the caller wipes them once it has
// built its posting.
func (r *Runner) EncryptRandom(count int) (Plaintexts, []tte.Ciphertext, error) {
	rnd, err := field.RandomVec(count)
	if err != nil {
		return Plaintexts{}, nil, err
	}
	defer field.Zeroize(rnd)
	ms := FieldCoeffs(rnd)
	cts, err := r.TE.EncryptMany(r.TPK, ms.Ints, BoundP, r.Workers)
	if err != nil {
		ms.Wipe()
		return Plaintexts{}, nil, err
	}
	return ms, cts, nil
}

// RandomStep has every member of c contribute encrypted random field
// elements and returns, per block of blocks, that many values extracted from
// the verified contributions at extraction m, laid out by slotpack.Layout:
// value j of block b is row j mod m of the Vandermonde matrix applied to
// position at[b] + j/m (slotpack.ListsOf chooses m). Every contribution is
// read under the public bound p.
func (r *Runner) RandomStep(c *yoso.Committee, sp Spec, blocks []int, m int) ([][]tte.Ciphertext, error) {
	at, per := slotpack.Layout(blocks, m)
	sp.Len = postlen.Posting{Ciphertexts: per}.Len(r.Sizes)
	posts, err := Step(r, c, sp, func(int) ([]byte, error) {
		ms, cts, err := r.EncryptRandom(per)
		ms.Wipe()
		return r.CtPosting(cts, err)
	})
	if err != nil {
		return nil, err
	}
	rows, err := vandermonde(posts, m)
	if err != nil {
		return nil, err
	}
	var cells []cell
	for b, size := range blocks {
		for j := range size {
			cells = append(cells, cell{pos: at[b] + j/m, row: j % m})
		}
	}
	vals, err := r.extract(posts, FieldBounds(per), rows, cells)
	if err != nil {
		return nil, err
	}
	out := make([][]tte.Ciphertext, len(blocks))
	for b, size := range blocks {
		out[b], vals = vals[:size:size], vals[size:]
	}
	return out, nil
}

// vandermonde returns the m rows of the Damgård–Nielsen matrix
// M_ji = i^{j−1} over the columns of the verified posts, i a poster's
// 1-based committee index: rows[j][s] = posts[s].Index^j. A member missing
// from posts drops out. The values M extracts are uniform mod p when m of
// the posters are honest, so fewer than m posters is an error.
func vandermonde(posts []Post, m int) ([][]*big.Int, error) {
	if len(posts) < m {
		return nil, fmt.Errorf("%w: %d verified contributions for %d extracted values per position", ErrNotEnough, len(posts), m)
	}
	rows := make([][]*big.Int, m)
	for j := range rows {
		rows[j] = make([]*big.Int, len(posts))
		for s, p := range posts {
			if j == 0 {
				rows[j][s] = big.NewInt(1)
				continue
			}
			rows[j][s] = new(big.Int).Mul(rows[j-1][s], big.NewInt(int64(p.Index)))
		}
	}
	return rows, nil
}

// cell is where one extracted value comes from: a row of the Vandermonde
// matrix applied to one position of the contributions.
type cell struct{ pos, row int }

// extract decodes the verified posts, slot k of each under the public
// bound bounds[k], and forms one value per cell from them:
// TEval(Σ_s rows[row][s]·posts[s][pos]). Postings decode one per task and
// values are independent, so both fan out over the worker pool; each worker
// gathers a value's terms into its own scratch.
func (r *Runner) extract(posts []Post, bounds []*big.Int, rows [][]*big.Int, cells []cell) ([]tte.Ciphertext, error) {
	s := len(posts)
	cts := make([][]tte.Ciphertext, s)
	if err := r.Pfor(s, func(i int) (err error) {
		cts[i], err = r.TE.DecodeCiphertexts(r.TPK, bounds, posts[i].Wire)
		return err
	}); err != nil {
		return nil, err
	}
	out := make([]tte.Ciphertext, len(cells))
	scratch := make([]tte.Ciphertext, min(parallel.Normalize(r.Workers), len(cells))*s)
	err := parallel.ForWorker(context.TODO(), r.Workers, len(cells), func(worker, v int) error {
		parts := scratch[worker*s : (worker+1)*s]
		for i, ct := range cts {
			parts[i] = ct[cells[v].pos]
		}
		var err error
		out[v], err = r.TE.Eval(r.TPK, parts, rows[cells[v].row])
		return err
	}, r.Obs)
	return out, err
}

// Triple is one multiplication gate's product under tpk: c^a of an operand
// a, c^b of a random b and c^c of c = a·b, or of c ≡ −a·b with Beaver's neg.
type Triple struct{ A, B, C tte.Ciphertext }

// Beaver is the product step of both drivers (the packed protocol's offline
// Step 1, the baseline's preprocessing): it forms the committee name of n
// members from assign, in the offline phase, and returns one triple per
// multiplication gate of circ, keyed by gate index, over the operands a its
// caller passes, one per gate in gate order (core's right-input λ's, the
// baseline's random a's). A circuit without a multiplication forms no committee.
//
// Gate g's b is extracted at m, all gates one block: each member contributes
// b-parts and also posts, per gate, its c-part b_i^{(g/m)}·c^{a_g}, or with
// neg (p − b_i^{(g/m)})·c^{a_g}, as one posting b‖c. Applying b_g's row of the
// Vandermonde matrix to the c-parts gives c_g = a_g·b_g, or c_g ≡ −a_g·b_g.
//
// Its writer bounds a c-part by b_i·Bound(c^a), which would publish the
// integer b_i; every reader decodes it under the public p·Bound(c^{a_g})
// instead, so each c^c carries p·Bound(c^a)·Σ_{i∈S} M_ji over the verified
// members S.
func (r *Runner) Beaver(assign *yoso.Assignment, name string, n int, circ *circuit.Circuit, a []tte.Ciphertext, m int, neg bool) (map[int]Triple, error) {
	muls := circ.MulGates()
	count := len(muls)
	if count == 0 {
		return nil, nil
	}
	com, err := assign.FormCommittee(name, n, comm.PhaseOffline)
	if err != nil {
		return nil, err
	}
	_, per := slotpack.Layout([]int{count}, m)
	sp := Spec{Phase: comm.PhaseOffline, Cat: comm.CatBeaver, Label: "beaver-bc",
		Len: postlen.Posting{Ciphertexts: per + count}.Len(r.Sizes)}
	posts, err := Step(r, com, sp, func(int) ([]byte, error) {
		ms, bc, err := r.EncryptRandom(per)
		if err != nil {
			return nil, err
		}
		defer ms.Wipe()
		if neg {
			for _, b := range ms.Ints {
				b.Sub(BoundP, b)
			}
		}
		coeff := make([]*big.Int, 1)
		for g := range count {
			coeff[0] = ms.Ints[g/m]
			ct, err := r.TE.Eval(r.TPK, a[g:g+1], coeff)
			if err != nil {
				return nil, err
			}
			bc = append(bc, ct)
		}
		return r.CtPosting(bc, nil)
	})
	if err != nil {
		return nil, err
	}
	rows, err := vandermonde(posts, m)
	if err != nil {
		return nil, err
	}
	// b_g is row g mod m at position g/m; c_g applies the same row to
	// gate g's c-parts, which follow the per b-parts.
	cells := make([]cell, 2*count)
	bounds := FieldBounds(per + count)
	for g := range count {
		cells[g] = cell{pos: g / m, row: g % m}
		cells[count+g] = cell{pos: per + g, row: g % m}
		bounds[per+g] = new(big.Int).Mul(BoundP, a[g].Bound())
	}
	bc, err := r.extract(posts, bounds, rows, cells)
	if err != nil {
		return nil, err
	}
	triples := make(map[int]Triple, count)
	for g, gi := range muls {
		triples[gi] = Triple{A: a[g], B: bc[g], C: bc[count+g]}
	}
	return triples, nil
}

// Masked returns the ciphertexts of the masks a driver opens for the
// multiplication gates gates of circ, x and y being a gate's input wires in
// cts: over Beaver triples ε = x + a and δ = y + b, interleaved in gate
// order; over products made with neg (a = y), ε = x + b alone, b the gate's
// extracted e.
func (r *Runner) Masked(circ *circuit.Circuit, gates []int, triples map[int]Triple, cts []tte.Ciphertext, neg bool) ([]tte.Ciphertext, error) {
	all := circ.Gates()
	ones := []*big.Int{big.NewInt(1), big.NewInt(1)}
	per := 2
	if neg {
		per = 1
	}
	out := make([]tte.Ciphertext, per*len(gates))
	err := r.Pfor(len(out), func(j int) error {
		g, t := all[gates[j/per]], triples[gates[j/per]]
		x, mask := cts[g.A], t.A
		if neg {
			mask = t.B
		} else if j%2 == 1 {
			x, mask = cts[g.B], t.B
		}
		var err error
		out[j], err = r.TE.Eval(r.TPK, []tte.Ciphertext{x, mask}, ones)
		return err
	})
	return out, err
}

// Product returns TEval's terms for the ciphertext of x·y once a Beaver
// triple's masks are open, ε·c^y + (p−δ)·c^a + c^c: the Beaver identity, with
// y the gate's right input ciphertext.
func (t Triple) Product(eps, del field.Element, y tte.Ciphertext) ([]tte.Ciphertext, []*big.Int) {
	return []tte.Ciphertext{y, t.A, t.C}, []*big.Int{FieldCoeff(eps), FieldCoeff(del.Neg()), big.NewInt(1)}
}
