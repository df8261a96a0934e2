package core

import (
	"fmt"
	"math/big"
	"slices"

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
	r.lists = slotpack.ListsOf(r.p.circ, r.p.params.N, r.p.params.T, r.p.params.K, r.rt.Sizes.SlotBits)
	r.layerOpen = make([][][]group, len(r.lists.Layers))
}

// offline executes the whole of Π_YOSO-Offline: Steps 1–4, the OffDec
// committee's speak (ε decryption, Step 5's re-encryption of the input-wire
// λ's and of the early clients' output-wire λ's to their clients' setup
// keys, and tsk resharing), and, where some layer takes keys-for-future, the
// OffRe committee's speak (Step 6: re-encryption of those layers' packed
// shares to their roles' KFFs). Nothing here depends on inputs or on online
// role keys: OnC1 is formed here, so the last offline tsk holder reshares
// tsk to its role keys, and it speaks after the input round (see online.go).
// The offline committees are formed in schedule order, so the adversary
// samples them in that order.
func (r *run) offline() error {
	p := r.p.params
	r.buildBatches()
	if err := r.offlineStep("wire-randomness", "step 2 (wire randomness)", r.offlineWireRandomness); err != nil {
		return err
	}
	// Step 1: committee OffB multiplies each multiplication gate's λ^β by a
	// fresh e extracted at the run's m′, giving c^e and C ≡ −e·λ^β.
	err := r.offlineStep("beaver", "step 1 (products)", func() (err error) {
		gates, muls := r.p.circ.Gates(), r.p.circ.MulGates()
		right := make([]tte.Ciphertext, len(muls))
		for m, gi := range muls {
			right[m] = r.wireCt[gates[gi].B]
		}
		r.products, err = r.rt.Beaver(r.assign, "offB", p.N, r.p.circ, right, r.lists.Extract, true)
		return err
	})
	if err != nil {
		return err
	}
	if r.offDec, err = r.assign.FormCommittee("offDec", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if slices.ContainsFunc(r.kff, func(kff []kffEntry) bool { return kff != nil }) {
		if r.offRe, err = r.assign.FormCommittee("offRe", p.N, comm.PhaseOffline); err != nil {
			return err
		}
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
	if err := r.offlineStep("reencrypt-to-kffs", "step 6 (re-encrypt to KFFs)", r.offReSpeak); err != nil {
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

// offlineWireRandomness is Step 2 plus the helper encryptions of Step 4: it
// forms committee OffR, whose contributions give, extracted at the run's m′,
// fresh randomness for every output wire of an input or multiplication gate
// and t extra random values per packed vector (3 vectors per batch: left λ,
// right λ, Γ). The values come in the blocks of the run's lists
// (Lists.Random): each client's input λ's in gate order, then per batch its
// gates' λ's and its helpers, vector kind (0=left, 1=right, 2=Γ) by vector
// kind. Everyone then derives the linear gates' λ's locally, depth by depth
// (a Const's λ is 0, the empty sum), so every wire's λ is fixed once OffR
// has spoken.
func (r *run) offlineWireRandomness() error {
	p := r.p.params
	gates := r.p.circ.Gates()
	offR, err := r.assign.FormCommittee("offR", p.N, comm.PhaseOffline)
	if err != nil {
		return err
	}
	blocks, err := r.rt.RandomStep(offR,
		committee.Spec{Phase: comm.PhaseOffline, Cat: comm.CatLambda, Label: "wire-randomness"}, r.lists.Random, r.lists.Extract)
	if err != nil {
		return err
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
	for d := 0; d <= r.p.circ.Depth(); d++ {
		for _, gi := range r.p.circ.LinearAt(d) {
			terms, _ := gates[gi].Terms()
			if r.wireCt[gates[gi].Out], err = r.rt.EvalTerms(terms, r.wireCt); err != nil {
				return err
			}
		}
	}
	return nil
}

// offlineDependentWires is Step 3: the OffDec committee threshold-decrypts
// ε = λ^α + e for every multiplication gate beside its Step 5 sealings (see
// offDecSpeak); everyone then forms c^Γ per gate.
func (r *run) offlineDependentWires() error {
	p := r.p.params
	te := p.TE
	gates := r.p.circ.Gates()

	// ε per mul gate, opened by OffDec; without a multiplication OffDec
	// only hands tsk onward.
	muls := r.p.circ.MulGates()
	open, err := r.rt.Masked(r.p.circ, muls, r.products, r.wireCt, true)
	if err != nil {
		return err
	}
	eps, err := r.offDecSpeak(open)
	if err != nil {
		return err
	}

	// Everyone: c^Γ = ε·c^β + C + (p−1)·c^γ, which encrypts
	// (λ^α + e)·λ^β − e·λ^β − λ^γ = λ^α·λ^β − λ^γ. Gates are independent;
	// results land in a slot-indexed slice and the gammaCt map is filled
	// serially afterwards (map writes are not concurrency-safe).
	one, pm1 := big.NewInt(1), new(big.Int).SetUint64(field.Modulus-1)
	gammas := make([]tte.Ciphertext, len(muls))
	if err := r.rt.Pfor(len(muls), func(m int) error {
		g := gates[muls[m]]
		r.audit.Record(comm.PhaseOffline, ValProductOpen, KeyTPK)
		var err error
		gammas[m], err = te.Eval(r.rt.TPK, []tte.Ciphertext{r.wireCt[g.B], r.products[muls[m]].C, r.wireCt[g.Out]},
			[]*big.Int{committee.FieldCoeff(eps[m]), one, pm1})
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

// offDecSpeak runs the OffDec committee, the first tsk holder, which makes
// every opening that does not depend on ε in one posting per member, each
// list slot-packed by its static widths: it Decrypts the ε ciphertexts
// `open` (none in a circuit without multiplications) and seals every input
// client's λ's (Step 5) and each early client's output λ's to the client's
// setup key, which setup posted. It reshares tsk to OffRe where OffRe was
// formed and to OnC1 otherwise, and returns ε reduced into the field.
func (r *run) offDecSpeak(open []tte.Ciphertext) ([]field.Element, error) {
	sp := committee.Spec{Phase: comm.PhaseOffline, Cat: comm.CatPartial, Label: "offdec-open"}
	var groups []group
	lists := append([]openList{{cts: open, widths: slotpack.Expand(r.lists.Eps), into: &groups}}, r.inputLists()...)
	seals, err := r.packLists(sp.Label, append(lists, r.outputLists(true)...))
	if err != nil {
		return nil, err
	}
	next := r.onC1
	if r.offRe != nil {
		next = r.offRe
	}
	ints, err := r.tskStep(r.offDec, sp, groups, seals, next)
	if err != nil {
		return nil, err
	}
	out := make([]field.Element, 0, len(open))
	for g, v := range ints {
		vals, err := splitGroup(v, groups[g].widths) //yosolint:vartime ε is opened to everyone; the branch is Split's refusal of an integer that runs past its slots
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
	// rows[k] is every member's l_j(i) coefficient row for a batch of width
	// k, member i's k + t of them from i·(k+t) on: built once per width from
	// the cached evaluation domain and read by every batch of that width,
	// for left, right and Γ alike.
	rows := map[int][]*big.Int{}
	for bi, b := range r.batches {
		sp := r.stepSpan("pack-batch")
		sp.SetInt("batch", int64(bi))
		sp.SetInt("gates", int64(b.k))
		sp.SetInt("layer", int64(b.Layer))
		// Validate guarantees t + 2(k−1) + 1 ≤ n, so the packed degree
		// t + b.k − 1 fits.
		dom, err := sharing.GetDomain(b.k, p.T+b.k-1, p.N)
		if err != nil {
			sp.End()
			return err
		}
		m := b.k + p.T
		row, ok := rows[b.k]
		if !ok {
			flat := make([]field.Element, 0, p.N*m)
			for i := range p.N {
				flat = append(flat, dom.ShareRow(i + 1)[:m]...)
			}
			row = committee.FieldCoeffs(flat).Ints
			rows[b.k] = row
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
				var err error
				out[i], err = te.Eval(r.rt.TPK, points, row[i*m:(i+1)*m])
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
