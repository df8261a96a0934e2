package committee

import (
	"context"
	"fmt"
	"math/big"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/parallel"
	"yosompc/internal/slotpack"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// EncryptRandom draws count fresh field elements in one read and encrypts
// them under tpk: one member's contribution to a jointly random vector. The
// plaintexts are the member's secret: the caller wipes them once it has
// built its bundle.
func (r *Runner) EncryptRandom(count int) (Plaintexts, CtBundle, error) {
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
// position at[b] + j/m (slotpack.ListsOf chooses m).
func (r *Runner) RandomStep(c *yoso.Committee, sp Spec, blocks []int, m int) ([][]tte.Ciphertext, error) {
	at, per := slotpack.Layout(blocks, m)
	posts, err := Step(r, c, sp, func(int) (CtBundle, error) {
		ms, cts, err := r.EncryptRandom(per)
		ms.Wipe()
		return cts, err
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
	vals, err := r.extract(posts, rows, cells)
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
func vandermonde(posts []Post[CtBundle], m int) ([][]*big.Int, error) {
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

// extract forms one value per cell from the verified posts:
// TEval(Σ_s rows[row][s]·posts[s][pos]). Values are independent, so the loop
// fans out over the worker pool; each worker gathers a value's terms into its
// own scratch.
func (r *Runner) extract(posts []Post[CtBundle], rows [][]*big.Int, cells []cell) ([]tte.Ciphertext, error) {
	out := make([]tte.Ciphertext, len(cells))
	s := len(posts)
	scratch := make([]tte.Ciphertext, min(parallel.Normalize(r.Workers), len(cells))*s)
	err := parallel.ForWorker(context.TODO(), r.Workers, len(cells), func(worker, v int) error {
		parts := scratch[worker*s : (worker+1)*s]
		for i, p := range posts {
			parts[i] = p.Payload[cells[v].pos]
		}
		var err error
		out[v], err = r.TE.Eval(r.TPK, parts, rows[cells[v].row])
		return err
	}, r.Obs)
	return out, err
}

// Triple is one multiplication gate's Beaver triple under tpk: the
// encryptions c^a, c^b of random a, b and c^c of c = a·b.
type Triple struct{ A, B, C tte.Ciphertext }

// Beaver is the b/c step of both drivers' Beaver triples (the packed
// protocol's offline Step 1, the baseline's preprocessing): it forms the
// committee name of n members from assign, in the offline phase, and returns
// one triple per multiplication gate of circ, keyed by gate index, over the
// a's its caller extracted at m (one per gate in gate order, one block of a
// RandomStep). A circuit without a multiplication forms no committee.
//
// Gate g's b is extracted at m, all gates one block: each member contributes
// b-parts and also posts, per gate, its c-part b_i^{(g/m)}·c^{a_g} — its b
// contribution at b_g's position times a_g — as one bundle b‖c. Applying
// b_g's row of the Vandermonde matrix to the c-parts gives c_g = a_g·b_g.
//
// TEval bounds that sum by Σ_i M_ji·b_i·Bound(c^a), which would publish the
// integers b_i; each c^c carries the public bound
// (p−1)·Bound(c^a)·Σ_{i∈S} M_ji over the verified members S instead.
func (r *Runner) Beaver(assign *yoso.Assignment, name string, n int, circ *circuit.Circuit, a []tte.Ciphertext, m int) (map[int]Triple, error) {
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
	posts, err := Step(r, com, Spec{Phase: comm.PhaseOffline, Cat: comm.CatBeaver, Label: "beaver-bc"}, func(int) (CtBundle, error) {
		ms, bc, err := r.EncryptRandom(per)
		if err != nil {
			return nil, err
		}
		defer ms.Wipe()
		coeff := make([]*big.Int, 1)
		for g := range count {
			coeff[0] = ms.Ints[g/m]
			ct, err := r.TE.Eval(r.TPK, a[g:g+1], coeff)
			if err != nil {
				return nil, err
			}
			bc = append(bc, ct)
		}
		return bc, nil
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
	for g := range count {
		cells[g] = cell{pos: g / m, row: g % m}
		cells[count+g] = cell{pos: per + g, row: g % m}
	}
	bc, err := r.extract(posts, rows, cells)
	if err != nil {
		return nil, err
	}
	b, c := bc[:count], bc[count:]
	// scale[j] is (p−1)·Σ_{i∈S} M_ji, the public factor of row j's c bound.
	scale := make([]*big.Int, m)
	for j, row := range rows {
		scale[j] = new(big.Int)
		for _, coeff := range row {
			scale[j].Add(scale[j], coeff)
		}
		scale[j].Mul(scale[j], pMinus1)
	}
	triples := make(map[int]Triple, count)
	for g, gi := range muls {
		cg, err := tte.Widen(r.TPK, c[g], new(big.Int).Mul(scale[g%m], a[g].Bound()))
		if err != nil {
			return nil, err
		}
		triples[gi] = Triple{A: a[g], B: b[g], C: cg}
	}
	return triples, nil
}

// Masked returns the ciphertexts of the masks ε = x + a and δ = y + b of the
// multiplication gates gates of circ, interleaved ε, δ in gate order: x and y
// are a gate's input wires in cts, a and b its triple's.
func (r *Runner) Masked(circ *circuit.Circuit, gates []int, triples map[int]Triple, cts []tte.Ciphertext) ([]tte.Ciphertext, error) {
	all := circ.Gates()
	ones := []*big.Int{big.NewInt(1), big.NewInt(1)}
	out := make([]tte.Ciphertext, 2*len(gates))
	err := r.Pfor(len(gates), func(m int) error {
		g, t := all[gates[m]], triples[gates[m]]
		var err error
		if out[2*m], err = r.TE.Eval(r.TPK, []tte.Ciphertext{cts[g.A], t.A}, ones); err != nil {
			return err
		}
		out[2*m+1], err = r.TE.Eval(r.TPK, []tte.Ciphertext{cts[g.B], t.B}, ones)
		return err
	})
	return out, err
}

// Product returns TEval's terms for the ciphertext of x·y once a gate's
// masks are open, ε·c^y + (p−δ)·c^a + c^c: the Beaver identity, with y the
// gate's right input ciphertext.
func (t Triple) Product(eps, del field.Element, y tte.Ciphertext) ([]tte.Ciphertext, []*big.Int) {
	return []tte.Ciphertext{y, t.A, t.C}, []*big.Int{FieldCoeff(eps), FieldCoeff(del.Neg()), big.NewInt(1)}
}
