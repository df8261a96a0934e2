package committee

import (
	"math/big"

	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// EncryptRandom draws count fresh field elements and encrypts them under
// tpk: one member's contribution to a jointly random vector.
func (r *Runner) EncryptRandom(count int) ([]*big.Int, CtBundle, error) {
	ms := make([]*big.Int, count)
	for i := range ms {
		ms[i] = FieldCoeff(field.MustRandom())
	}
	cts, err := tte.EncryptAll(r.TE, r.TPK, ms, BoundP, r.Workers)
	return ms, cts, err
}

// RandomStep has every member of c contribute count encrypted random field
// elements and returns the per-position sums of the verified contributions.
func (r *Runner) RandomStep(c *yoso.Committee, sp Spec, count int) ([]tte.Ciphertext, error) {
	posts, err := Step(r, c, sp, func(int) (CtBundle, error) {
		_, cts, err := r.EncryptRandom(count)
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
func (r *Runner) Beaver(b1, b2 *yoso.Committee, count int) (a, b, c []tte.Ciphertext, err error) {
	if a, err = r.RandomStep(b1, Spec{Phase: comm.PhaseOffline, Cat: comm.CatBeaver, Label: "beaver-a"}, count); err != nil {
		return nil, nil, nil, err
	}
	posts, err := Step(r, b2, Spec{Phase: comm.PhaseOffline, Cat: comm.CatBeaver, Label: "beaver-bc"}, func(int) (CtBundle, error) {
		ms, bc, err := r.EncryptRandom(count)
		if err != nil {
			return nil, err
		}
		for g, m := range ms {
			ct, err := r.TE.Eval(r.TPK, a[g:g+1], []*big.Int{m})
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
	return a, sums[:count], sums[count:], nil
}
