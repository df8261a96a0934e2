package core

import (
	"fmt"
	"math/big"

	"yosompc/internal/comm"
	"yosompc/internal/committee"
	"yosompc/internal/field"
	"yosompc/internal/sharing"
	"yosompc/internal/slotpack"
	"yosompc/internal/tte"
)

// initWireState allocates the run's per-wire bookkeeping.
func (r *run) initWireState() {
	n := r.p.circ.NumWires()
	r.wireCt = make([]tte.Ciphertext, n)
	r.mu = make([]field.Element, n)
	clients := len(r.p.circ.Clients())
	r.inputOpen = make([][]group, clients)
	r.outputOpen = make([][]group, clients)
	r.lists = slotpack.ListsOf(r.p.circ, r.p.params.N, r.p.params.T, r.p.params.K, slotpack.Capacity(r.rt.TPK.MaxPlaintext()))
	r.layerOpen = make([][][]group, len(r.lists.Layers))
}

// offline executes the whole of Π_YOSO-Offline: Steps 1–4, the OffDec
// committee's speak (ε/δ decryption + tsk resharing), and the OffRe
// committee's speak (Steps 5–6: re-encryption of all preprocessed secrets
// to the recipients' KFFs, and of the early clients' output-wire λ's to
// their setup keys). Nothing here depends on inputs or on online role keys: OnC1 is
// formed here, so OffRe reshares tsk to its role keys, and it speaks at
// online start (see online.go). Committees are formed in schedule order, so
// the adversary samples them in that order.
func (r *run) offline() error {
	p := r.p.params
	r.buildBatches()
	// Step 2 and Step 1's a's: OffR's one step extracts every fresh value
	// the offline phase needs beyond the Beaver b's.
	var a []tte.Ciphertext
	err := r.offlineStep("wire-randomness", "step 2 (wire randomness)", func() (err error) {
		a, err = r.offlineWireRandomness()
		return err
	})
	if err != nil {
		return err
	}
	// Step 1: committee OffB completes one Beaver triple under tpk per
	// multiplication gate over OffR's a's, b extracted at the run's m′.
	err = r.offlineStep("beaver", "step 1 (Beaver)", func() (err error) {
		r.beaver, err = r.rt.Beaver(r.assign, "offB", p.N, r.p.circ, a, r.lists.Extract)
		return err
	})
	if err != nil {
		return err
	}
	if r.offDec, err = r.assign.FormCommittee("offDec", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if r.offRe, err = r.assign.FormCommittee("offRe", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if r.onC1, err = r.assign.FormCommittee("onC1", p.N, comm.PhaseOffline); err != nil {
		return err
	}

	// The paper's "give tsk_i to C^Off_{1,i}": OffDec is the first tsk holder.
	if r.tsk, err = r.rt.DealShares(r.offDec, r.dealt); err != nil {
		return err
	}
	if err := r.offlineStep("dependent-wires", "step 3 (dependent wires)", r.offlineDependentWires); err != nil {
		return err
	}
	if err := r.offlineStep("packing", "step 4 (packing)", r.offlinePack); err != nil {
		return err
	}
	if err := r.offlineStep("reencrypt-to-kffs", "steps 5-6 (re-encrypt to KFFs and clients)", r.offReSpeak); err != nil {
		return err
	}
	return nil
}

// offlineStep runs one offline driver step inside its span.
func (r *run) offlineStep(name, label string, fn func() error) error {
	sp := r.stepSpan("offline:" + name)
	defer sp.End()
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	return nil
}

// buildBatches groups the circuit's multiplication gates into packed
// batches of at most k gates per layer.
func (r *run) buildBatches() {
	for _, mb := range r.p.circ.MulBatches(r.p.params.K) {
		r.batches = append(r.batches, &batchState{MulBatch: mb, k: len(mb.Gates)})
	}
}

// offlineWireRandomness is Step 2 plus the helper encryptions of Step 4
// and the a's of Step 1: it forms committee OffR, whose contributions give,
// extracted at the run's m′, fresh randomness for every output wire of an
// input or multiplication gate, t extra random values per packed vector (3
// vectors per batch: left λ, right λ, Γ) and one Beaver a per
// multiplication gate, which it returns. The values come in the blocks of
// the run's lists (Lists.Random): each client's input λ's in gate order,
// then per batch its gates' λ's and its helpers, vector kind (0=left,
// 1=right, 2=Γ) by vector kind, then the a's in gate order.
func (r *run) offlineWireRandomness() ([]tte.Ciphertext, error) {
	p := r.p.params
	gates := r.p.circ.Gates()
	offR, err := r.assign.FormCommittee("offR", p.N, comm.PhaseOffline)
	if err != nil {
		return nil, err
	}
	blocks, err := r.rt.RandomStep(offR,
		committee.Spec{Phase: comm.PhaseOffline, Cat: comm.CatLambda, Label: "wire-randomness"}, r.lists.Random, r.lists.Extract)
	if err != nil {
		return nil, err
	}
	clients := r.p.circ.Clients()
	for c, client := range clients {
		for j, gi := range r.p.circ.InputGates(client) {
			r.wireCt[gates[gi].Out] = blocks[c][j]
		}
	}
	for bi, b := range r.batches {
		vals := blocks[len(clients)+bi]
		for j, gi := range b.Gates {
			r.wireCt[gates[gi].Out] = vals[j]
		}
		helpers := vals[len(b.Gates):]
		b.helpers = make([][]tte.Ciphertext, 3)
		for kind := range b.helpers {
			b.helpers[kind] = helpers[kind*p.T : (kind+1)*p.T]
		}
	}
	return blocks[len(blocks)-1], nil
}

// offlineDependentWires is Step 3: everyone locally derives λ-ciphertexts
// for linear gates; the OffDec committee threshold-decrypts the Beaver
// openings ε = λ^α + λ^x and δ = λ^β + λ^y for every multiplication gate
// and reshares tsk to OffRe; everyone then forms c^Γ per gate.
func (r *run) offlineDependentWires() error {
	p := r.p.params
	te := p.TE
	gates := r.p.circ.Gates()

	// Local: λ-ciphertexts for linear gates, depth by depth. A Const's λ is
	// 0, the empty sum.
	for d := 0; d <= r.p.circ.Depth(); d++ {
		for _, gi := range r.p.circ.LinearAt(d) {
			terms, _ := gates[gi].Terms()
			ct, err := r.rt.EvalTerms(terms, r.wireCt)
			if err != nil {
				return err
			}
			r.wireCt[gates[gi].Out] = ct
		}
	}

	// ε/δ per mul gate, opened by OffDec; without a multiplication OffDec
	// only hands tsk onward.
	muls := r.p.circ.MulGates()
	open, err := r.rt.Masked(r.p.circ, muls, r.beaver, r.wireCt)
	if err != nil {
		return err
	}
	openings, err := r.offDecSpeak(open)
	if err != nil {
		return err
	}

	// Everyone: c^Γ = ε·c^β + (p−δ)·c^x + c^z + (p−1)·c^γ, the Beaver
	// product λ^α·λ^β (Triple.Product) less λ^γ. Gates are independent;
	// results land in a slot-indexed slice and the gammaCt map is filled
	// serially afterwards (map writes are not concurrency-safe).
	pm1 := new(big.Int).SetUint64(field.Modulus - 1)
	gammas := make([]tte.Ciphertext, len(muls))
	if err := r.rt.Pfor(len(muls), func(m int) error {
		g := gates[muls[m]]
		r.audit.Record(comm.PhaseOffline, ValBeaverOpen, KeyTPK)
		cts, coeffs := r.beaver[muls[m]].Product(openings[2*m], openings[2*m+1], r.wireCt[g.B])
		var err error
		gammas[m], err = te.Eval(r.rt.TPK, append(cts, r.wireCt[g.Out]), append(coeffs, pm1))
		return err
	}); err != nil {
		return err
	}
	if r.gammaCt == nil {
		r.gammaCt = map[int]tte.Ciphertext{}
	}
	for m, gi := range muls {
		r.gammaCt[gi] = gammas[m]
	}
	return nil
}

// offDecSpeak runs the OffDec committee: Decrypt the ε/δ ciphertexts `open`
// (none in a circuit without multiplications), slot-packed by their static
// widths, and reshare tsk to OffRe. It returns the opened values reduced into
// the field.
func (r *run) offDecSpeak(open []tte.Ciphertext) ([]field.Element, error) {
	sp := committee.Spec{Phase: comm.PhaseOffline, Cat: comm.CatPartial, Label: "offdec-open"}
	packed, err := r.packGroups(sp.Label, []openList{{cts: open, widths: slotpack.Expand(r.lists.EpsDelta)}})
	if err != nil {
		return nil, err
	}
	groups := packed[0]
	ints, err := r.rt.DecryptStep(r.tsk, r.offDec, sp, appendOpenings(nil, groups, nil), r.offRe)
	if err != nil {
		return nil, err
	}
	out := make([]field.Element, 0, len(open))
	for g, v := range ints {
		vals, err := splitGroup(v, groups[g].widths) //yosolint:vartime ε and δ are opened to everyone; the branch is Split's refusal of an integer that runs past its slots
		if err != nil {
			return nil, fmt.Errorf("%s: group %d: %w", sp.Label, g, err)
		}
		out = append(out, vals...)
	}
	return out, nil
}

// offlinePack is Step 4: everyone locally assembles, per batch, the packed
// share ciphertexts of the left-input λ vector, the right-input λ vector,
// and the Γ vector, interpolating homomorphically through the k wire
// values and the t helper encryptions.
func (r *run) offlinePack() error {
	p := r.p.params
	te := p.TE
	gates := r.p.circ.Gates()
	for bi, b := range r.batches {
		sp := r.stepSpan("pack-batch")
		sp.SetInt("batch", int64(bi))
		sp.SetInt("gates", int64(b.k))
		sp.SetInt("layer", int64(b.Layer))
		// The l_j(i) coefficient rows come straight from the cached
		// evaluation domain — shared across batches of the same width and
		// across runs, with no per-batch clone. Validate guarantees
		// t + 2(k−1) + 1 ≤ n, so the packed degree t + b.k − 1 fits.
		dom, err := sharing.GetDomain(b.k, p.T+b.k-1, p.N)
		if err != nil {
			sp.End()
			return err
		}
		left := make([]tte.Ciphertext, b.k)
		right := make([]tte.Ciphertext, b.k)
		gamma := make([]tte.Ciphertext, b.k)
		for j, gi := range b.Gates {
			g := gates[gi]
			left[j] = r.wireCt[g.A]
			right[j] = r.wireCt[g.B]
			gamma[j] = r.gammaCt[gi]
		}
		pack := func(vals []tte.Ciphertext, helpers []tte.Ciphertext) ([]tte.Ciphertext, error) {
			points := append(append([]tte.Ciphertext{}, vals...), helpers...)
			out := make([]tte.Ciphertext, p.N)
			// One homomorphic interpolation per share index — the
			// packing-helper hot loop, fanned out slot-indexed per index.
			err := r.rt.Pfor(p.N, func(i int) error {
				coeffs := committee.FieldCoeffs(dom.ShareRow(i + 1)[:len(points)])
				var err error
				out[i], err = te.Eval(r.rt.TPK, points, coeffs.Ints)
				return err
			})
			return out, err
		}
		packed := make([][]tte.Ciphertext, len(b.helpers))
		for kind, vals := range [][]tte.Ciphertext{left, right, gamma} {
			if packed[kind], err = pack(vals, b.helpers[kind]); err != nil {
				break
			}
		}
		sp.End()
		if err != nil {
			return err
		}
		b.packedLeft, b.packedRight, b.packedGamma = packed[0], packed[1], packed[2]
	}
	return nil
}
