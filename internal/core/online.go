package core

import (
	"fmt"

	"yosompc/internal/comm"
	"yosompc/internal/committee"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/postlen"
	"yosompc/internal/sharing"
	"yosompc/internal/slotpack"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// online executes Π_YOSO-Online: inputs, OnC1's future key distribution
// beside its sealing of the output λ's that may not reach their clients
// before the inputs are posted, layer by layer multiplication, and output
// delivery: each client unmasks its outputs with the λ's OffDec or OnC1
// sealed to it.
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

	// Input: each client opens λ for its input wires and publishes μ = v−λ.
	sp := r.stepSpan("input")
	err := r.onlineInput(inputs)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("input: %w", err)
	}
	r.propagateLinear(0)

	// Future key distribution: with every input posted, OnC1 re-encrypts
	// the KFF secret keys to the layers' role keys and the late output λ's
	// to their clients.
	if err := r.onC1Speak(); err != nil {
		return nil, fmt.Errorf("future key distribution: %w", err)
	}

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

	// Output: every client unmasks v = μ + λ.
	return r.onlineOutput()
}

// inputLists returns every input client's input-wire λ's, slot-packed per
// client and sealed to its setup key (offline Step 5).
func (r *run) inputLists() []openList {
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
			key: r.clients[client].PublicKey(), into: &r.inputOpen[ci]})
	}
	return lists
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

// offReSpeak packs each layer member's 3·(batches of the layer) packed
// left/right/Γ shares into its groups, so the online phase evaluates
// nothing, and, where some layer needs KFFs (slotpack.Lists.NeedsKFF), runs
// the OffRe committee, which seals those layers' groups to the KFF of each
// member's role (Step 6), each from the role's window (committee.TskStep),
// and reshares tsk to OnC1. The Γ shares depend on ε, so OffDec cannot
// seal them; every KFF is posted at setup, so OffRe speaks before any
// input exists (it is called from offline()). OnC1 seals the groups of
// every other layer.
func (r *run) offReSpeak() error {
	n := r.p.params.N
	var lists []openList
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
			list := openList{cts: cts, widths: widths, into: &r.layerOpen[l][i]}
			if r.kff[l] != nil {
				list.key, list.role = r.kff[l][i].pub, i+1
			}
			lists = append(lists, list)
		}
	}
	sp := committee.Spec{Phase: comm.PhaseOffline, Cat: comm.CatReencrypt, Label: "step-6"}
	seals, err := r.packLists(sp.Label, lists)
	// The per-index share ciphertexts live on in the groups only.
	for _, b := range r.batches {
		b.packedLeft, b.packedRight, b.packedGamma = nil, nil, nil
	}
	if err != nil || r.offRe == nil {
		return err
	}
	_, err = r.tskStep(r.offRe, sp, nil, seals, r.onC1)
	return err
}

// onC1Speak is the online "future key distribution", run once every input
// is posted: OnC1 re-encrypts to each layer role's now-posted key either its
// KFF secret key or, where the layer has no KFFs, the one group of its
// packed shares, each from the role's window of n − 2(k−1) members
// (committee.TskStep), and the output λ's of the clients whose outputs are
// not early (circuit.EarlyOutputs) to their setup keys, from every member.
// It is the last tsk holder: OffDec and OffRe made every other opening the
// run needs.
func (r *run) onC1Speak() error {
	sp := committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatKFF, Label: "future-key-distribution"}
	var seals []sealing
	for l, layer := range r.layers {
		for i, groups := range r.layerOpen[l] {
			if r.kff[l] != nil {
				groups = r.kff[l][i].secret
			}
			seals = append(seals, sealing{groups: groups, key: layer.Role(i + 1).PublicKey(), role: i + 1})
		}
	}
	late, err := r.packLists(sp.Label, r.outputLists(false))
	if err != nil {
		return err
	}
	_, err = r.tskStep(r.onC1, sp, nil, append(seals, late...), nil)
	return err
}

// openKFF recovers a layer role's KFF secret key from the group OnC1 sealed
// to the role's key. The combined integer and its 32-byte encoding are the
// secret key itself; both backends copy the encoding, so both are wiped
// once the key is built.
func (r *run) openKFF(entry *kffEntry, ownerSK pke.SecretKey) (pke.SecretKey, error) {
	g := entry.secret[0]
	v, err := r.rt.CombineSealed(ownerSK, g.envs, g.ct)
	if err != nil {
		return nil, err
	}
	r.audit.Record(comm.PhaseOnline, ValKFFSecret, KeyRole)
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
func (m muBundle) Encode(r *committee.Runner) ([]byte, error) {
	return field.AppendVecBytes(make([]byte, 0, postlen.Posting{Elements: len(m.vals)}.Len(r.Sizes)), m.vals), nil
}

// decodeMu is Encode's inverse, the one way a reader learns posted μ's: it
// accepts exactly count canonical elements, a posting of the length z gives
// them, and refuses any other posting, which the reader then counts as
// missing.
func decodeMu(z postlen.Sizes, wire []byte, count int) (muBundle, error) {
	// A count above the posting's length is refused before Len can wrap.
	if count < 0 || count > len(wire) || len(wire) != (postlen.Posting{Elements: count}).Len(z) {
		return muBundle{}, fmt.Errorf("μ posting of %d bytes, want %d values", len(wire), count)
	}
	vals := make([]field.Element, count)
	for i := range vals {
		var err error
		if vals[i], err = field.FromBytes(wire[i*z.Element:]); err != nil {
			return muBundle{}, err
		}
	}
	return muBundle{vals: vals}, nil
}

// onlineInput has every client open λ^α for each of its input wires (with
// its setup key) and publish μ^α = v^α − λ^α.
func (r *run) onlineInput(inputs map[int][]field.Element) error {
	gates := r.p.circ.Gates()
	for ci, client := range r.p.circ.Clients() {
		inGates := r.p.circ.InputGates(client)
		if len(inGates) == 0 {
			continue
		}
		role := r.clients[client]
		lambdas, err := r.openGroups(role.SecretKey(), r.inputOpen[ci])
		if err != nil {
			return fmt.Errorf("client %d inputs: %w", client, err)
		}
		mus := make([]field.Element, len(inGates))
		for j := range inGates {
			r.audit.Record(comm.PhaseOnline, ValWireLambda, KeyClient)
			mus[j] = inputs[client][j].Sub(lambdas[j])
		}
		post, ok, err := committee.Speak(r.rt, role,
			committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatInput, Label: "client-input", Len: postlen.Posting{Elements: len(inGates)}.Len(r.rt.Sizes)},
			func() (muBundle, error) { return muBundle{vals: mus}, nil })
		if err != nil {
			return err
		}
		if ok {
			post.Payload, err = decodeMu(r.rt.Sizes, post.Wire, len(inGates))
		}
		if !ok || err != nil {
			// A client whose input posting fails verification or decoding
			// aborts the run with ErrNotEnough: no default input stands in
			// for it. Clients are known parties, never corrupted by the
			// adversary, so honest runs never take this path.
			return fmt.Errorf("%w: client %d input rejected", ErrNotEnough, client)
		}
		for j, gi := range inGates {
			r.mu[gates[gi].Out] = post.Payload.vals[j]
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
// t+2(k−1)+1 verified shares. With Params.Robust the step is unattested and
// μ^γ is decoded from all the shares by Berlekamp–Welch (§5.3 alternative).
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
		// The member's shares are sealed to its KFF or, where the layer has
		// none, to its role key.
		sk, key := c.Role(i).SecretKey(), KeyRole
		if r.kff[l] != nil {
			var err error
			if sk, err = r.openKFF(&r.kff[l][i-1], sk); err != nil {
				return muBundle{}, err
			}
			key = KeyKFF
		}
		// The member's left/right/Γ shares of every batch, in batch order.
		lams, err := r.openGroups(sk, r.layerOpen[l][i-1])
		if err != nil {
			return muBundle{}, err
		}
		vals := make([]field.Element, len(layerBatches))
		for bi := range layerBatches {
			r.audit.Record(comm.PhaseOnline, ValPackedShare, key)
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

	posted, err := committee.Step(r.rt, c,
		committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatMu, Label: fmt.Sprintf("mu-layer%d", l+1), Unattested: p.Robust,
			Len: postlen.Posting{Elements: len(layerBatches)}.Len(r.rt.Sizes)},
		computeShares)
	if err != nil {
		return err
	}
	// Every reader decodes the shares from the posted bytes; a malformed
	// posting is a missing share.
	posts := posted[:0]
	for _, post := range posted {
		if post.Payload, err = decodeMu(r.rt.Sizes, post.Wire, len(layerBatches)); err == nil {
			posts = append(posts, post)
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

// onlineOutput has each client open its output-wire λ's and unmask
// v = μ + λ, the last layer having made μ public.
func (r *run) onlineOutput() (map[int][]field.Element, error) {
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
