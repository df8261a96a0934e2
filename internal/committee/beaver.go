package committee

import (
	"math/big"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
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

// RandomStep has every member of c contribute count encrypted random field
// elements and returns the per-position sums of the verified contributions.
func (r *Runner) RandomStep(c *yoso.Committee, sp Spec, count int) ([]tte.Ciphertext, error) {
	posts, err := Step(r, c, sp, func(int) (CtBundle, error) {
		ms, cts, err := r.EncryptRandom(count)
		ms.Wipe()
		return cts, err
	}, count*r.TPK.CiphertextSize())
	if err != nil {
		return nil, err
	}
	return r.SumContributions(posts, count)
}

// Triple is one multiplication gate's Beaver triple under tpk: the
// encryptions c^a, c^b of random a, b and c^c of c = a·b.
type Triple struct{ A, B, C tte.Ciphertext }

// Beaver is the Beaver step of both drivers (the packed protocol's offline
// Step 1, the baseline's preprocessing): it forms the committees names[0] and
// names[1] of n members from assign, in the offline phase, and returns one
// triple per multiplication gate of circ, keyed by gate index. A circuit
// without a multiplication forms neither committee.
//
// names[0]'s members contribute the a-parts; names[1]'s members contribute
// b-parts and homomorphically form their c-parts c_i^c = b_i · c^a, posted
// as one bundle b‖c.
//
// TEval bounds the sum of the c-parts by Σ b_i·Bound(c^a), which would
// publish the integer b; each c^c carries the public bound
// |S|·(p−1)·Bound(c^a) over the |S| verified names[1] members instead.
func (r *Runner) Beaver(assign *yoso.Assignment, names [2]string, n int, circ *circuit.Circuit) (map[int]Triple, error) {
	muls := circ.MulGates()
	count := len(muls)
	if count == 0 {
		return nil, nil
	}
	var cs [2]*yoso.Committee
	for i, name := range names {
		var err error
		if cs[i], err = assign.FormCommittee(name, n, comm.PhaseOffline); err != nil {
			return nil, err
		}
	}
	a, err := r.RandomStep(cs[0], Spec{Phase: comm.PhaseOffline, Cat: comm.CatBeaver, Label: "beaver-a"}, count)
	if err != nil {
		return nil, err
	}
	posts, err := Step(r, cs[1], Spec{Phase: comm.PhaseOffline, Cat: comm.CatBeaver, Label: "beaver-bc"}, func(int) (CtBundle, error) {
		ms, bc, err := r.EncryptRandom(count)
		if err != nil {
			return nil, err
		}
		defer ms.Wipe()
		coeff := make([]*big.Int, 1)
		for g, m := range ms.Ints {
			coeff[0] = m
			ct, err := r.TE.Eval(r.TPK, a[g:g+1], coeff)
			if err != nil {
				return nil, err
			}
			bc = append(bc, ct)
		}
		return bc, nil
	}, 2*count*r.TPK.CiphertextSize())
	if err != nil {
		return nil, err
	}
	sums, err := r.SumContributions(posts, 2*count)
	if err != nil {
		return nil, err
	}
	scale := new(big.Int).Mul(big.NewInt(int64(len(posts))), pMinus1)
	triples := make(map[int]Triple, count)
	for g, gi := range muls {
		c, err := tte.Widen(r.TPK, sums[count+g], new(big.Int).Mul(scale, a[g].Bound()))
		if err != nil {
			return nil, err
		}
		triples[gi] = Triple{A: a[g], B: sums[g], C: c}
	}
	return triples, nil
}

// Masked returns the ciphertexts of the masks ε = x + a and δ = y + b of the
// multiplication gates gates of circ, interleaved ε, δ in gate order: x and y
// are a gate's input wires in cts, a and b its triple's.
func (r *Runner) Masked(circ *circuit.Circuit, gates []int, triples map[int]Triple, cts []tte.Ciphertext) ([]tte.Ciphertext, error) {
	all := circ.Gates()
	ones := Ones(2)
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
