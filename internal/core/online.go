package core

import (
	"fmt"

	"yosompc/internal/comm"
	"yosompc/internal/committee"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/sharing"
	"yosompc/internal/slotpack"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// online executes Π_YOSO-Online: OnC1's future key distribution, inputs,
// layer by layer multiplication, and output delivery: OnOut, formed only
// for them, re-encrypts the output λ's that may not reach their clients
// before the inputs are posted, and each client unmasks its outputs with
// those and the λ's OffRe sealed to it in preprocessing.
func (r *run) online(inputs map[int][]field.Element) (map[int][]field.Element, error) {
	p := r.p.params

	// The online phase begins: role assignment publishes the layer
	// committees' role keys.
	depth := r.p.circ.Depth()
	r.layers = make([]*yoso.Committee, depth)
	for l := 0; l < depth; l++ {
		c, err := r.assign.FormCommittee(fmt.Sprintf("on-layer%d", l+1), p.N, comm.PhaseOnline)
		if err != nil {
			return nil, err
		}
		r.layers[l] = c
	}
	// OnOut holds tsk past the input round for the output λ's that may not
	// reach their clients before it (circuit.EarlyOutputs).
	if r.p.lateOutputs() {
		var err error
		if r.onOut, err = r.assign.FormCommittee("onOut", p.N, comm.PhaseOnline); err != nil {
			return nil, err
		}
	}

	// Future key distribution: OnC1 re-encrypts KFF secret keys to the
	// now-known role keys and reshares tsk to OnOut, if formed.
	if err := r.onC1Speak(); err != nil {
		return nil, fmt.Errorf("future key distribution: %w", err)
	}

	// Input: each client opens λ for its input wires and publishes μ = v−λ.
	sp := r.stepSpan("input")
	err := r.onlineInput(inputs)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("input: %w", err)
	}
	r.propagateLinear(0)

	// Multiplication layers.
	for l := 0; l < depth; l++ {
		lsp := r.stepSpan("mu-layer")
		lsp.SetInt("layer", int64(l+1))
		err := r.onlineLayer(l)
		lsp.End()
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", l+1, err)
		}
		r.propagateLinear(l + 1)
	}

	// Output: OnOut seals the late output λ's, and every client unmasks
	// v = μ + λ.
	return r.onlineOutput()
}

// outputLists returns the output-wire λ's of the clients whose outputs are
// early (circuit.EarlyOutputs) or, with early false, of the others,
// slot-packed per client and sealed to its setup key.
func (r *run) outputLists(early bool) []openList {
	gates := r.p.circ.Gates()
	var lists []openList
	for ci, client := range r.p.circ.Clients() {
		outGates := r.p.circ.OutputGates(client)
		if len(outGates) == 0 || r.p.early[client] != early {
			continue
		}
		cts := make([]tte.Ciphertext, len(outGates))
		for o, gi := range outGates {
			cts[o] = r.wireCt[gates[gi].A]
		}
		lists = append(lists, openList{cts: cts, widths: slotpack.Expand(r.lists.Outputs[ci]),
			key: r.clients[client].PublicKey(), into: &r.outputOpen[ci]})
	}
	return lists
}

// layerBatches returns the batches of multiplication layer l+1.
func (r *run) layerBatches(l int) []*batchState {
	var out []*batchState
	for _, b := range r.batches {
		if b.Layer == l+1 {
			out = append(out, b)
		}
	}
	return out
}

// offReSpeak runs the OffRe committee, which reshares tsk to OnC1 and
// seals, slot-packed per reader, every input client's λ's to the client's
// KFF (offline Step 5), per layer that has batches each member's
// 3·(batches of the layer) packed left/right/Γ shares to the KFF of its role
// (Step 6), and the early clients' output λ's to their setup keys. Every
// target key is posted at setup, so OffRe speaks before any input exists (it
// is called from offline()).
func (r *run) offReSpeak() error {
	n := r.p.params.N
	gates := r.p.circ.Gates()
	var lists []openList
	for ci, client := range r.p.circ.Clients() {
		inGates := r.p.circ.InputGates(client)
		if len(inGates) == 0 {
			continue
		}
		cts := make([]tte.Ciphertext, len(inGates))
		for j, gi := range inGates {
			cts[j] = r.wireCt[gates[gi].Out]
		}
		lists = append(lists, openList{cts: cts, widths: slotpack.Expand(r.lists.Inputs[ci]),
			key: r.kffClient[client].pub, into: &r.inputOpen[ci]})
	}
	for l := range r.lists.Layers {
		batches := r.layerBatches(l)
		if len(batches) == 0 {
			continue
		}
		widths := slotpack.Expand(r.lists.Layers[l])
		r.layerOpen[l] = make([][]group, n)
		for i := 0; i < n; i++ {
			cts := make([]tte.Ciphertext, 0, 3*len(batches))
			for _, b := range batches {
				cts = append(cts, b.packedLeft[i], b.packedRight[i], b.packedGamma[i])
			}
			lists = append(lists, openList{cts: cts, widths: widths, key: r.kffLayer[l][i].pub, into: &r.layerOpen[l][i]})
		}
	}
	err := r.reencryptLists(r.offRe, committee.Spec{Phase: comm.PhaseOffline, Cat: comm.CatReencrypt, Label: "steps-5-6"},
		append(lists, r.outputLists(true)...), r.onC1)
	// The per-index share ciphertexts live on in the groups only.
	for _, b := range r.batches {
		b.packedLeft, b.packedRight, b.packedGamma = nil, nil, nil
	}
	return err
}

// onC1Speak is the online "future key distribution": OnC1 re-encrypts each
// KFF secret key towards the owner's role-assignment key. It reshares tsk
// to OnOut when some client's output λ's wait for the inputs, and otherwise
// to no one: OffRe made every other opening the run needs.
func (r *run) onC1Speak() error {
	var open []committee.Opening
	var owners []*kffEntry
	for l, kl := range r.kffLayer {
		for j := range kl {
			open = append(open, committee.Opening{Ct: kl[j].secretCt, Key: r.layers[l].Role(j + 1).PublicKey()})
			owners = append(owners, &kl[j])
		}
	}
	for _, id := range r.p.circ.Clients() {
		if kff := r.kffClient[id]; kff != nil {
			open = append(open, committee.Opening{Ct: kff.secretCt, Key: r.clients[id].PublicKey()})
			owners = append(owners, kff)
		}
	}
	res, err := r.rt.TskStep(r.tsk, r.onC1,
		committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatKFF, Label: "future-key-distribution"}, open, r.onOut)
	if err != nil {
		return err
	}
	for j, kff := range owners {
		kff.delivered = res.Sealed[j]
	}
	return nil
}

// openKFF recovers a KFF secret key from its delivered envelopes using the
// owner's role secret key. The combined integer and its 32-byte encoding are
// the secret key itself; both backends copy the encoding, so both are wiped
// once the key is built.
func (r *run) openKFF(entry *kffEntry, ownerSK pke.SecretKey, phase comm.Phase) (pke.SecretKey, error) {
	v, err := r.rt.CombineSealed(ownerSK, entry.delivered, entry.secretCt)
	if err != nil {
		return nil, err
	}
	r.audit.Record(phase, ValKFFSecret, KeyRole)
	var buf [pke.SecretKeySize]byte
	v.FillBytes(buf[:])
	clear(v.Bits())
	sk, err := r.p.params.PKE.SecretKeyFromBytes(buf[:])
	clear(buf[:])
	return sk, err
}

// muBundle is a client's or layer role's broadcast of μ openings/shares.
type muBundle struct{ vals []field.Element }

// Encode implements committee.Payload.
func (m muBundle) Encode(*committee.Runner) ([]byte, error) {
	return field.AppendVecBytes(make([]byte, 0, len(m.vals)*field.ElementSize), m.vals), nil
}

// onlineInput has every client open λ^α for each of its input wires (via
// its KFF) and publish μ^α = v^α − λ^α.
func (r *run) onlineInput(inputs map[int][]field.Element) error {
	gates := r.p.circ.Gates()
	for ci, client := range r.p.circ.Clients() {
		inGates := r.p.circ.InputGates(client)
		if len(inGates) == 0 {
			continue
		}
		role := r.clients[client]
		kffSK, err := r.openKFF(r.kffClient[client], role.SecretKey(), comm.PhaseOnline)
		if err != nil {
			return fmt.Errorf("client %d KFF: %w", client, err)
		}
		lambdas, err := r.openGroups(kffSK, r.inputOpen[ci])
		if err != nil {
			return fmt.Errorf("client %d inputs: %w", client, err)
		}
		mus := make([]field.Element, len(inGates))
		for j := range inGates {
			r.audit.Record(comm.PhaseOnline, ValWireLambda, KeyKFF)
			mus[j] = inputs[client][j].Sub(lambdas[j])
		}
		_, ok, err := committee.Speak(r.rt, role,
			committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatInput, Label: "client-input"},
			func() (muBundle, error) { return muBundle{vals: mus}, nil })
		if err != nil {
			return err
		}
		if !ok {
			// A client whose input posting fails verification aborts the
			// run with ErrNotEnough: no default input stands in for it.
			// Clients are known parties, never corrupted by the
			// adversary, so honest runs never take this path.
			return fmt.Errorf("%w: client %d input rejected", ErrNotEnough, client)
		}
		for j, gi := range inGates {
			r.mu[gates[gi].Out] = mus[j]
		}
	}
	return nil
}

// propagateLinear computes μ for the linear gates of depth d — the "anyone
// can locally add μ's" rule, applied once the inputs (d = 0) or layer d are
// public. μ = v − λ is linear in the gate's inputs like v and λ are, and a
// Const has λ = 0, so its μ is its value.
func (r *run) propagateLinear(d int) {
	gates := r.p.circ.Gates()
	for _, gi := range r.p.circ.LinearAt(d) {
		r.mu[gates[gi].Out] = gates[gi].EvalLinear(r.mu)
	}
}

// onlineLayer runs the multiplication committee of layer l (0-based): each
// member opens its packed λ/Γ shares via its KFF, forms its μ^γ share
//
//	μ_i^γ = μ_i^α·μ_i^β + μ_i^α·λ_i^β + μ_i^β·λ_i^α + λ_i^Γ,
//
// and broadcasts one field element per batch; anyone reconstructs μ^γ from
// t+2(k−1)+1 verified shares.
func (r *run) onlineLayer(l int) error {
	p := r.p.params
	c := r.layers[l]
	gates := r.p.circ.Gates()

	// The layer's batches and their public μ input vectors.
	layerBatches := r.layerBatches(l)
	if len(layerBatches) == 0 {
		c.SpeakAll()
		return nil
	}
	muLeft := make([][]field.Element, len(layerBatches))
	muRight := make([][]field.Element, len(layerBatches))
	// One cached constant-packing domain per batch width, fetched outside
	// the per-member closure: every constant-packed share below is then a
	// precomputed-row inner product with no cache lookup in the hot loop.
	constDoms := make([]*sharing.ConstDomain, len(layerBatches))
	for bi, b := range layerBatches {
		muLeft[bi] = make([]field.Element, b.k)
		muRight[bi] = make([]field.Element, b.k)
		for j, gi := range b.Gates {
			g := gates[gi]
			muLeft[bi][j] = r.mu[g.A]
			muRight[bi][j] = r.mu[g.B]
		}
		cd, err := sharing.GetConstDomain(b.k)
		if err != nil {
			return err
		}
		constDoms[bi] = cd
	}

	computeShares := func(i int) (muBundle, error) {
		kffSK, err := r.openKFF(&r.kffLayer[l][i-1], c.Role(i).SecretKey(), comm.PhaseOnline)
		if err != nil {
			return muBundle{}, err
		}
		// The member's left/right/Γ shares of every batch, in batch order.
		lams, err := r.openGroups(kffSK, r.layerOpen[l][i-1])
		if err != nil {
			return muBundle{}, err
		}
		vals := make([]field.Element, len(layerBatches))
		for bi := range layerBatches {
			r.audit.Record(comm.PhaseOnline, ValPackedShare, KeyKFF)
			la, lb, lg := lams[3*bi], lams[3*bi+1], lams[3*bi+2]
			sa, err := constDoms[bi].Share(muLeft[bi], i)
			if err != nil {
				return muBundle{}, err
			}
			sb, err := constDoms[bi].Share(muRight[bi], i)
			if err != nil {
				return muBundle{}, err
			}
			// μ_i^γ = μ_i^α·μ_i^β + μ_i^α·λ_i^β + μ_i^β·λ_i^α + λ_i^Γ.
			vals[bi] = sa.Value.Mul(sb.Value).
				Add(sa.Value.Mul(lb)).
				Add(sb.Value.Mul(la)).
				Add(lg)
		}
		return muBundle{vals: vals}, nil
	}

	var posts []committee.Post[muBundle]
	if p.Robust {
		// IT-GOD path (§5.3 alternative): bare shares, no proofs;
		// Berlekamp–Welch decodes up to t lies out.
		posts = r.layerStepRobust(c, l, computeShares, len(layerBatches))
	} else {
		var err error
		posts, err = committee.Step(r.rt, c,
			committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatMu, Label: fmt.Sprintf("mu-layer%d", l+1)},
			computeShares)
		if err != nil {
			return err
		}
	}

	// Reconstruct μ^γ per batch from the posted shares.
	for bi, b := range layerBatches {
		bsp := r.stepSpan("reconstruct-batch")
		bsp.SetInt("batch", int64(bi))
		bsp.SetInt("gates", int64(b.k))
		shares := make([]sharing.Share, len(posts))
		for m, post := range posts {
			shares[m] = sharing.Share{Index: post.Index, Value: post.Payload.vals[bi]}
		}
		degree := p.T + 2*(b.k-1)
		var muGamma []field.Element
		var err error
		switch {
		case p.Robust:
			muGamma, err = sharing.ReconstructRobust(shares, degree, b.k, p.T)
		case len(shares) <= degree:
			err = fmt.Errorf("%w: have %d shares, need %d", ErrNotEnough, len(shares), degree+1)
		default:
			muGamma, err = sharing.ReconstructPacked(shares[:degree+1], degree, b.k)
		}
		bsp.End()
		if err != nil {
			return fmt.Errorf("batch %d: %w", bi, err)
		}
		for j, gi := range b.Gates {
			r.mu[gates[gi].Out] = muGamma[j]
		}
	}
	return nil
}

// layerStepRobust runs a μ layer without proofs: protocol-following roles
// post their shares, malicious roles post uniformly random lies
// (type-correct — anything else would be trivially discardable), fail-stop
// roles post nothing. All posted bundles are returned; decoding sorts them
// out.
func (r *run) layerStepRobust(c *yoso.Committee, l int,
	honest func(i int) (muBundle, error), nBatches int) []committee.Post[muBundle] {
	posted := make([]*muBundle, c.N())
	// Members run on the worker pool; results stay slot-indexed. Honest
	// errors are swallowed (treated as crashes, which decoding tolerates),
	// so the fan-out itself never fails.
	_ = r.rt.Pfor(c.N(), func(idx0 int) error {
		role := c.Roles[idx0]
		var payload muBundle
		switch role.Behavior {
		case yoso.FailStop:
			return nil
		case yoso.Malicious:
			payload.vals = make([]field.Element, nBatches)
			for j := range payload.vals {
				payload.vals[j] = field.MustRandom()
			}
		default:
			var err error
			if payload, err = honest(idx0 + 1); err != nil {
				return nil
			}
		}
		enc, _ := payload.Encode(r.rt)
		role.Post(comm.PhaseOnline, comm.CatMu, enc)
		posted[idx0] = &payload
		return nil
	})
	posts := make([]committee.Post[muBundle], 0, c.N())
	for idx0, role := range c.Roles {
		if posted[idx0] != nil {
			posts = append(posts, committee.Post[muBundle]{Index: idx0 + 1, Payload: *posted[idx0]})
		}
		if !role.Behavior.FollowsProtocol() {
			r.rt.Excluded = append(r.rt.Excluded, fmt.Sprintf("%s@mu-layer%d (%s)", role.Name(), l+1, role.Behavior))
		}
	}
	c.SpeakAll()
	return posts
}

// onlineOutput has OnOut, when some client's output λ's wait for the
// inputs, Re-encrypt those to their clients, and then each client open its
// output-wire λ's and unmask v = μ + λ, the last layer having made μ
// public.
func (r *run) onlineOutput() (map[int][]field.Element, error) {
	if lists := r.outputLists(false); len(lists) > 0 {
		err := r.reencryptLists(r.onOut, committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatOutput, Label: "output"}, lists, nil)
		if err != nil {
			return nil, err
		}
	}
	gates := r.p.circ.Gates()
	outputs := map[int][]field.Element{}
	for ci, client := range r.p.circ.Clients() {
		outGates := r.p.circ.OutputGates(client)
		if len(outGates) == 0 {
			continue
		}
		// Clients are known machines: their keys outlive their single
		// input-role broadcast.
		lambdas, err := r.openGroups(r.clients[client].SecretKey(), r.outputOpen[ci])
		if err != nil {
			return nil, fmt.Errorf("client %d outputs: %w", client, err)
		}
		for o, gi := range outGates {
			r.audit.Record(comm.PhaseOnline, ValOutput, KeyClient)
			outputs[client] = append(outputs[client], r.mu[gates[gi].A].Add(lambdas[o]))
		}
	}
	return outputs, nil
}
