package core

import (
	"fmt"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/committee"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/sharing"
	"yosompc/internal/slotpack"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// online executes the offline/online boundary (OffRe's speak: Steps 5–6 +
// tsk hand-off) and Π_YOSO-Online: future key distribution, inputs, layer
// by layer multiplication, and output delivery.
func (r *run) online(inputs map[int][]field.Element) (map[int][]field.Element, error) {
	p := r.p.params
	var err error

	// The online phase begins: role assignment publishes the online
	// committees' role keys.
	if r.onC1, err = r.p.assign.FormCommittee("onC1", p.N, comm.PhaseOnline); err != nil {
		return nil, err
	}
	depth := r.p.circ.Depth()
	r.layers = make([]*yoso.Committee, depth)
	for l := 0; l < depth; l++ {
		c, err := r.p.assign.FormCommittee(fmt.Sprintf("on-layer%d", l+1), p.N, comm.PhaseOnline)
		if err != nil {
			return nil, err
		}
		r.layers[l] = c
	}
	if r.onOut, err = r.p.assign.FormCommittee("onOut", p.N, comm.PhaseOnline); err != nil {
		return nil, err
	}

	// Boundary speak: the bridging committee hands tsk to OnC1 now that
	// the online role keys exist. This is its only job — everything else
	// in the offline phase finished before inputs were known.
	if err := r.offBridgeSpeak(); err != nil {
		return nil, fmt.Errorf("tsk boundary hand-off: %w", err)
	}

	// Future key distribution: OnC1 re-encrypts KFF secret keys to the
	// now-known role keys and hands tsk to the output committee.
	if err := r.onC1Speak(); err != nil {
		return nil, fmt.Errorf("future key distribution: %w", err)
	}

	// Input: each client opens λ for its input wires and publishes μ = v−λ.
	sp := r.stepSpan("input")
	err = r.onlineInput(inputs)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("input: %w", err)
	}
	r.propagateLinear()

	// Multiplication layers.
	for l := 0; l < depth; l++ {
		lsp := r.stepSpan("mu-layer")
		lsp.SetInt("layer", int64(l+1))
		err := r.onlineLayer(l)
		lsp.End()
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", l+1, err)
		}
		r.propagateLinear()
	}

	// Output.
	return r.onlineOutput()
}

// reencrypt runs offline Steps 5–6 on committee c: Re-encrypt every
// input-wire λ to its client (Step 5) and every packed left/right/Γ share to
// the layer member that will use it (Step 6), then reshare tsk to next. What
// one recipient gets is slot-packed first: a client's λ's, and the 3·(batches
// of the layer) shares of one layer member. Which keys receive them is the
// only difference between the KFF protocol (the recipients' keys-for-future,
// so OffRe speaks before any online role key exists) and the §3.2 naive
// ablation (their role keys, so OnC1 pays the Θ(n²·batches) communication
// online).
func (r *run) reencrypt(c *yoso.Committee, sp committee.Spec, next *yoso.Committee,
	clientKey func(client int) pke.PublicKey, layerKey func(layer, i int) pke.PublicKey) error {
	n := r.p.params.N
	gates := r.p.circ.Gates()
	// One list per recipient: the input clients, then every member of every
	// layer that has batches.
	var lists []openList
	var inClients, layers []int
	for ci, client := range r.p.circ.Clients() {
		inGates := r.p.circ.InputGates(client)
		if len(inGates) == 0 {
			continue
		}
		cts := make([]tte.Ciphertext, len(inGates))
		for j, gi := range inGates {
			cts[j] = r.wireCt[gates[gi].Out]
		}
		lists = append(lists, openList{cts: cts, widths: slotpack.Expand(r.lists.Inputs[ci]), key: clientKey(client)})
		inClients = append(inClients, client)
	}
	for l := range r.lists.Layers {
		batches := r.layerBatches(l)
		if len(batches) == 0 {
			continue
		}
		widths := slotpack.Expand(r.lists.Layers[l])
		for i := 0; i < n; i++ {
			cts := make([]tte.Ciphertext, 0, 3*len(batches))
			for _, b := range batches {
				cts = append(cts, b.packedLeft[i], b.packedRight[i], b.packedGamma[i])
			}
			lists = append(lists, openList{cts: cts, widths: widths, key: layerKey(l+1, i+1)})
		}
		layers = append(layers, l)
	}
	groups, err := r.reencryptLists(c, sp, lists, next)
	if err != nil {
		return err
	}
	for _, client := range inClients {
		r.inputOpen[client], groups = groups[0], groups[1:]
	}
	r.layerOpen = make([][][]group, len(r.lists.Layers))
	for _, l := range layers {
		r.layerOpen[l], groups = groups[:n], groups[n:]
	}
	// The per-index share ciphertexts live on in the groups only.
	for _, b := range r.batches {
		b.packedLeft, b.packedRight, b.packedGamma = nil, nil, nil
	}
	return nil
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

// offReSpeak runs the OffRe committee (offline Steps 5 and 6). Every target
// key is known during the offline phase, so this speak happens entirely
// before inputs exist (it is called from offline()).
func (r *run) offReSpeak() error {
	if r.p.params.NoKFF {
		// §3.2 naive ablation: nothing to re-encrypt yet (the online role
		// keys do not exist and there are no KFFs) — OffRe only passes tsk
		// onward; OnC1 will pay the re-encryption online.
		_, err := r.rt.TskStep(r.tsk, r.offRe,
			committee.Spec{Phase: comm.PhaseOffline, Cat: comm.CatPartial, Label: "steps-5-6-nokff"}, nil, r.offBridge)
		return err
	}
	return r.reencrypt(r.offRe,
		committee.Spec{Phase: comm.PhaseOffline, Cat: comm.CatReencrypt, Label: "steps-5-6"}, r.offBridge,
		func(client int) pke.PublicKey { return r.kffClient[client].pub },
		func(layer, i int) pke.PublicKey { return r.kffLayer[layer-1][i-1].pub })
}

// offBridgeSpeak has the bridging committee reshare tsk to OnC1 — the only
// offline work that must wait for the online role keys. It is metered as
// offline communication.
func (r *run) offBridgeSpeak() error {
	_, err := r.rt.TskStep(r.tsk, r.offBridge,
		committee.Spec{Phase: comm.PhaseOffline, Cat: comm.CatPartial, Label: "tsk-bridge"}, nil, r.onC1)
	return err
}

// onC1Speak is the online "future key distribution": OnC1 re-encrypts each
// KFF secret key towards the owner's role-assignment key, and reshares tsk
// to OnOut (needed for output delivery).
func (r *run) onC1Speak() error {
	if r.p.params.NoKFF {
		return r.reencrypt(r.onC1,
			committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatReencrypt, Label: "online-reencrypt-nokff"}, r.onOut,
			func(client int) pke.PublicKey { return r.clients[client].PublicKey() },
			func(layer, i int) pke.PublicKey { return r.layers[layer-1].Role(i).PublicKey() })
	}
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
// owner's role secret key.
func (r *run) openKFF(entry *kffEntry, ownerSK pke.SecretKey, phase comm.Phase) (pke.SecretKey, error) {
	v, err := r.rt.CombineSealed(ownerSK, entry.delivered, entry.secretCt)
	if err != nil {
		return nil, err
	}
	r.p.audit.Record(phase, ValKFFSecret, KeyRole)
	buf := make([]byte, pke.SecretKeySize)
	v.FillBytes(buf)
	return r.p.params.PKE.SecretKeyFromBytes(buf)
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
	for _, client := range r.p.circ.Clients() {
		inGates := r.p.circ.InputGates(client)
		if len(inGates) == 0 {
			continue
		}
		role := r.clients[client]
		inputKey := role.SecretKey()
		keyClass := KeyClient
		if !r.p.params.NoKFF {
			kffSK, err := r.openKFF(r.kffClient[client], role.SecretKey(), comm.PhaseOnline)
			if err != nil {
				return fmt.Errorf("client %d KFF: %w", client, err)
			}
			inputKey = kffSK
			keyClass = KeyKFF
		}
		lambdas, err := r.openGroups(inputKey, r.inputOpen[client])
		if err != nil {
			return fmt.Errorf("client %d inputs: %w", client, err)
		}
		mus := make([]field.Element, len(inGates))
		for j := range inGates {
			r.p.audit.Record(comm.PhaseOnline, ValWireLambda, keyClass)
			mus[j] = inputs[client][j].Sub(lambdas[j])
		}
		_, ok, err := committee.Speak(r.rt, role,
			committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatInput, Label: "client-input"},
			func() (muBundle, error) { return muBundle{vals: mus}, nil }, len(mus)*field.ElementSize)
		if err != nil {
			return err
		}
		if !ok {
			// A silent/cheating client falls back to the default input 0
			// (the ideal functionality's default); μ = −λ would require
			// opening λ publicly, which the driver models by excluding
			// the client's outputs instead. Honest-client runs never hit
			// this path.
			return fmt.Errorf("%w: client %d input rejected", ErrNotEnough, client)
		}
		for j, gi := range inGates {
			w := gates[gi].Out
			r.mu[w] = mus[j]
			r.muKnown[w] = true
		}
	}
	return nil
}

// propagateLinear computes μ for linear gates whose inputs are known — the
// "anyone can locally add μ's" rule.
func (r *run) propagateLinear() {
	for _, g := range r.p.circ.Gates() {
		switch g.Kind {
		case circuit.KindConst:
			// v = Const and λ = 0, so μ = Const, publicly known upfront.
			if !r.muKnown[g.Out] {
				r.mu[g.Out] = g.Const
				r.muKnown[g.Out] = true
			}
		case circuit.KindAdd:
			if r.muKnown[g.A] && r.muKnown[g.B] && !r.muKnown[g.Out] {
				r.mu[g.Out] = r.mu[g.A].Add(r.mu[g.B])
				r.muKnown[g.Out] = true
			}
		case circuit.KindSub:
			if r.muKnown[g.A] && r.muKnown[g.B] && !r.muKnown[g.Out] {
				r.mu[g.Out] = r.mu[g.A].Sub(r.mu[g.B])
				r.muKnown[g.Out] = true
			}
		case circuit.KindConstMul:
			if r.muKnown[g.A] && !r.muKnown[g.Out] {
				r.mu[g.Out] = g.Const.Mul(r.mu[g.A])
				r.muKnown[g.Out] = true
			}
		}
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
	// the per-member closure: every ConstantPackedShare below is then a
	// precomputed-row inner product with no cache lookup in the hot loop.
	constDoms := make([]*sharing.ConstDomain, len(layerBatches))
	for bi, b := range layerBatches {
		muLeft[bi] = make([]field.Element, b.k)
		muRight[bi] = make([]field.Element, b.k)
		for j, gi := range b.Gates {
			g := gates[gi]
			if !r.muKnown[g.A] || !r.muKnown[g.B] {
				return fmt.Errorf("core: layer %d gate %d inputs not yet public", l+1, gi)
			}
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
		role := c.Role(i)
		shareKey := role.SecretKey()
		keyClass := KeyRole
		if !p.NoKFF {
			kffSK, err := r.openKFF(&r.kffLayer[l][i-1], role.SecretKey(), comm.PhaseOnline)
			if err != nil {
				return muBundle{}, err
			}
			shareKey = kffSK
			keyClass = KeyKFF
		}
		// The member's left/right/Γ shares of every batch, in batch order.
		lams, err := r.openGroups(shareKey, r.layerOpen[l][i-1])
		if err != nil {
			return muBundle{}, err
		}
		vals := make([]field.Element, len(layerBatches))
		for bi := range layerBatches {
			r.p.audit.Record(comm.PhaseOnline, ValPackedShare, keyClass)
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
			computeShares, len(layerBatches)*field.ElementSize)
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
			w := gates[gi].Out
			r.mu[w] = muGamma[j]
			r.muKnown[w] = true
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

// onlineOutput re-encrypts each client's output-wire λ's, slot-packed, to
// that client, who opens v = μ + λ.
func (r *run) onlineOutput() (map[int][]field.Element, error) {
	gates := r.p.circ.Gates()
	sp := committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatOutput, Label: "output"}
	var lists []openList
	var outClients []int
	var outWires [][]circuit.WireID
	for ci, client := range r.p.circ.Clients() {
		outGates := r.p.circ.OutputGates(client)
		if len(outGates) == 0 {
			continue
		}
		wires := make([]circuit.WireID, len(outGates))
		cts := make([]tte.Ciphertext, len(outGates))
		for j, gi := range outGates {
			wires[j] = gates[gi].A
			if !r.muKnown[wires[j]] {
				return nil, fmt.Errorf("core: output wire %d has no public μ", wires[j])
			}
			cts[j] = r.wireCt[wires[j]]
		}
		lists = append(lists, openList{cts: cts, widths: slotpack.Expand(r.lists.Outputs[ci]), key: r.clients[client].PublicKey()})
		outClients = append(outClients, client)
		outWires = append(outWires, wires)
	}
	groups, err := r.reencryptLists(r.onOut, sp, lists, nil)
	if err != nil {
		return nil, err
	}
	outputs := map[int][]field.Element{}
	for j, client := range outClients {
		// Clients are known machines: their keys outlive their single
		// input-role broadcast.
		lambdas, err := r.openGroups(r.clients[client].SecretKey(), groups[j])
		if err != nil {
			return nil, fmt.Errorf("client %d outputs: %w", client, err)
		}
		for o, wire := range outWires[j] {
			r.p.audit.Record(comm.PhaseOnline, ValOutput, KeyClient)
			outputs[client] = append(outputs[client], r.mu[wire].Add(lambdas[o]))
		}
	}
	return outputs, nil
}
