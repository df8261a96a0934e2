package core

import (
	"fmt"
	"math/big"

	"yosompc/internal/circuit"
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
	r.muKnown = make([]bool, n)
	r.beaver = map[int]*beaverTriple{}
	r.inputOpen = map[int][]group{}
	r.lists = slotpack.ListsOf(r.p.circ, r.p.params.N, r.p.params.T, r.p.params.K)
}

// offline executes the whole of Π_YOSO-Offline: Steps 1–4, the OffDec
// committee's speak (ε/δ decryption + tsk resharing), and the OffRe
// committee's speak (Steps 5–6: re-encryption of all preprocessed secrets
// to the recipients' KFFs). Nothing here depends on inputs or on online
// role keys — tsk crosses the boundary via the dedicated offBridge
// committee, which speaks at online start (see online.go).
func (r *run) offline() error {
	p := r.p.params
	var err error
	if r.offB1, err = r.p.assign.FormCommittee("offB1", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if r.offB2, err = r.p.assign.FormCommittee("offB2", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if r.offR, err = r.p.assign.FormCommittee("offR", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if r.offDec, err = r.p.assign.FormCommittee("offDec", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if r.offRe, err = r.p.assign.FormCommittee("offRe", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if r.offBridge, err = r.p.assign.FormCommittee("offBridge", p.N, comm.PhaseOffline); err != nil {
		return err
	}

	// The paper's "give tsk_i to C^Off_{1,i}": OffDec is the first tsk holder.
	if r.tsk, err = r.rt.DealShares(r.offDec, r.dealt); err != nil {
		return err
	}
	r.logStep("offline committees formed", "committees", 6, "size", p.N)

	r.buildBatches()
	r.logStep("mul batches built", "batches", len(r.batches), "k", p.K)

	if err := r.offlineStep("beaver", "step 1 (Beaver)", r.offlineBeaver); err != nil {
		return err
	}
	if err := r.offlineStep("wire-randomness", "step 2 (wire randomness)", r.offlineWireRandomness); err != nil {
		return err
	}
	if err := r.offlineStep("dependent-wires", "step 3 (dependent wires)", r.offlineDependentWires); err != nil {
		return err
	}
	if err := r.offlineStep("packing", "step 4 (packing)", r.offlinePack); err != nil {
		return err
	}
	if err := r.offlineStep("reencrypt-to-kffs", "steps 5-6 (re-encrypt to KFFs)", r.offReSpeak); err != nil {
		return err
	}
	return nil
}

// offlineStep runs one offline driver step inside a span and logs its
// start and completion with the span ID — the offline phase's structured
// progress trail (the online phase logs per committee step instead).
func (r *run) offlineStep(name, label string, fn func() error) error {
	sp := r.stepSpan("offline:" + name)
	r.rt.LogSpan(sp, "offline step starting", "step", name)
	err := fn()
	sp.End()
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	r.rt.LogSpan(sp, "offline step complete", "step", name)
	return nil
}

// buildBatches groups the circuit's multiplication gates into packed
// batches of at most k gates per layer.
func (r *run) buildBatches() {
	for _, mb := range r.p.circ.MulBatches(r.p.params.K) {
		r.batches = append(r.batches, &batchState{MulBatch: mb, k: len(mb.Gates)})
	}
}

// mulGateIndices returns the indices of all multiplication gates.
func (r *run) mulGateIndices() []int {
	var out []int
	for i, g := range r.p.circ.Gates() {
		if g.Kind == circuit.KindMul {
			out = append(out, i)
		}
	}
	return out
}

// offlineBeaver is Step 1: committees OffB1 and OffB2 prepare one Beaver
// triple (c^a, c^b, c^c) under tpk per multiplication gate.
func (r *run) offlineBeaver() error {
	muls := r.mulGateIndices()
	if len(muls) == 0 {
		return nil
	}
	cA, cB, cC, err := r.rt.Beaver(r.offB1, r.offB2, len(muls))
	if err != nil {
		return err
	}
	for g, gi := range muls {
		r.beaver[gi] = &beaverTriple{a: cA[g], b: cB[g], c: cC[g]}
	}
	return nil
}

// offlineWireRandomness is Step 2 plus the helper encryptions of Step 4:
// committee OffR contributes fresh randomness for every output wire of an
// input or multiplication gate, and t extra random values per packed
// vector (3 vectors per batch: left λ, right λ, Γ).
func (r *run) offlineWireRandomness() error {
	p := r.p.params
	gates := r.p.circ.Gates()
	var targets []int // wire ids needing fresh λ
	for _, g := range gates {
		if g.Kind == circuit.KindInput || g.Kind == circuit.KindMul {
			targets = append(targets, int(g.Out))
		}
	}
	total := len(targets) + 3*p.T*len(r.batches)
	sums, err := r.rt.RandomStep(r.offR,
		committee.Spec{Phase: comm.PhaseOffline, Cat: comm.CatLambda, Label: "wire-randomness"}, total)
	if err != nil {
		return err
	}
	for j, w := range targets {
		r.wireCt[w] = sums[j]
	}
	// Helper layout: batch-major, then vector kind (0=left,1=right,2=Γ),
	// then t helpers.
	hbase := len(targets)
	for bi, b := range r.batches {
		b.helpers = make([][]tte.Ciphertext, 3)
		for kind := 0; kind < 3; kind++ {
			b.helpers[kind] = make([]tte.Ciphertext, p.T)
			for j := 0; j < p.T; j++ {
				b.helpers[kind][j] = sums[hbase+(bi*3+kind)*p.T+j]
			}
		}
	}
	return nil
}

// offlineDependentWires is Step 3: everyone locally derives λ-ciphertexts
// for linear gates; the OffDec committee threshold-decrypts the Beaver
// openings ε = λ^α + λ^x and δ = λ^β + λ^y for every multiplication gate
// and reshares tsk to OffRe; everyone then forms c^Γ per gate.
func (r *run) offlineDependentWires() error {
	p := r.p.params
	te := p.TE
	gates := r.p.circ.Gates()

	// Local: λ-ciphertexts for linear gates, in topological order.
	pm1 := new(big.Int).SetUint64(field.Modulus - 1)
	for _, g := range gates {
		switch g.Kind {
		case circuit.KindConst:
			// Public constants carry no secret: λ = 0, and everyone can
			// form the canonical zero ciphertext (the empty TEval).
			ct, err := te.Eval(r.rt.TPK, nil, nil)
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		case circuit.KindAdd:
			ct, err := te.Eval(r.rt.TPK, []tte.Ciphertext{r.wireCt[g.A], r.wireCt[g.B]},
				[]*big.Int{big.NewInt(1), big.NewInt(1)})
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		case circuit.KindSub:
			// λ^a − λ^b encoded as λ^a + (p−1)·λ^b (mod p).
			ct, err := te.Eval(r.rt.TPK, []tte.Ciphertext{r.wireCt[g.A], r.wireCt[g.B]},
				[]*big.Int{big.NewInt(1), pm1})
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		case circuit.KindConstMul:
			ct, err := te.Eval(r.rt.TPK, []tte.Ciphertext{r.wireCt[g.A]},
				[]*big.Int{committee.FieldCoeff(g.Const)})
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		}
	}

	muls := r.mulGateIndices()
	if len(muls) == 0 {
		// Still hand tsk onward: OffDec only reshares.
		_, err := r.offDecSpeak(nil)
		return err
	}
	ones := committee.Ones(2)

	// ε/δ ciphertexts per mul gate — independent per gate, slot-indexed so
	// the opened order is identical to the serial path.
	open := make([]tte.Ciphertext, 2*len(muls))
	if err := r.rt.Pfor(len(muls), func(m int) error {
		gi := muls[m]
		g := gates[gi]
		bt := r.beaver[gi]
		eps, err := te.Eval(r.rt.TPK, []tte.Ciphertext{r.wireCt[g.A], bt.a}, ones)
		if err != nil {
			return err
		}
		del, err := te.Eval(r.rt.TPK, []tte.Ciphertext{r.wireCt[g.B], bt.b}, ones)
		if err != nil {
			return err
		}
		open[2*m], open[2*m+1] = eps, del
		return nil
	}); err != nil {
		return err
	}

	openings, err := r.offDecSpeak(open)
	if err != nil {
		return err
	}

	// Everyone: c^Γ = ε·c^β + (p−δ)·c^x + c^z + (p−1)·c^γ. Gates are
	// independent; results land in a slot-indexed slice and the gammaCt map
	// is filled serially afterwards (map writes are not concurrency-safe).
	gammas := make([]tte.Ciphertext, len(muls))
	if err := r.rt.Pfor(len(muls), func(m int) error {
		gi := muls[m]
		g := gates[gi]
		bt := r.beaver[gi]
		eps := openings[2*m]
		del := openings[2*m+1]
		r.p.audit.Record(comm.PhaseOffline, ValBeaverOpen, KeyTPK)
		gamma, err := te.Eval(r.rt.TPK,
			[]tte.Ciphertext{r.wireCt[g.B], bt.a, bt.c, r.wireCt[g.Out]},
			[]*big.Int{committee.FieldCoeff(eps), committee.FieldCoeff(del.Neg()), big.NewInt(1), pm1})
		if err != nil {
			return err
		}
		gammas[m] = gamma
		return nil
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
				row := dom.ShareRow(i + 1)
				coeffs := make([]*big.Int, len(points))
				for j := range coeffs {
					coeffs[j] = committee.FieldCoeff(row[j])
				}
				ct, err := te.Eval(r.rt.TPK, points, coeffs)
				if err != nil {
					return err
				}
				out[i] = ct
				return nil
			})
			if err != nil {
				return nil, err
			}
			return out, nil
		}
		if b.packedLeft, err = pack(left, b.helpers[0]); err != nil {
			sp.End()
			return err
		}
		if b.packedRight, err = pack(right, b.helpers[1]); err != nil {
			sp.End()
			return err
		}
		if b.packedGamma, err = pack(gamma, b.helpers[2]); err != nil {
			sp.End()
			return err
		}
		sp.End()
	}
	return nil
}
