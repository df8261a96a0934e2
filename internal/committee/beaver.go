package committee

import (
	"math/big"

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

// Beaver prepares count Beaver triples (c^a, c^b, c^c) under tpk (offline
// Step 1): b1's members contribute the a-parts; b2's members contribute
// b-parts and homomorphically form their c-parts c_i^c = b_i · c^a, posted
// as one bundle b‖c.
//
// TEval bounds the sum of the c-parts by Σ b_i·Bound(c^a), which would
// publish the integer b; each c^c carries the public bound
// |S|·(p−1)·Bound(c^a) over the |S| verified b2 members instead.
func (r *Runner) Beaver(b1, b2 *yoso.Committee, count int) (a, b, c []tte.Ciphertext, err error) {
	if a, err = r.RandomStep(b1, Spec{Phase: comm.PhaseOffline, Cat: comm.CatBeaver, Label: "beaver-a"}, count); err != nil {
		return nil, nil, nil, err
	}
	posts, err := Step(r, b2, Spec{Phase: comm.PhaseOffline, Cat: comm.CatBeaver, Label: "beaver-bc"}, func(int) (CtBundle, error) {
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
		return nil, nil, nil, err
	}
	sums, err := r.SumContributions(posts, 2*count)
	if err != nil {
		return nil, nil, nil, err
	}
	b, c = sums[:count], sums[count:]
	scale := new(big.Int).Mul(big.NewInt(int64(len(posts))), pMinus1)
	for g := range c {
		if c[g], err = tte.Widen(r.TPK, c[g], new(big.Int).Mul(scale, a[g].Bound())); err != nil {
			return nil, nil, nil, err
		}
	}
	return a, b, c, nil
}
