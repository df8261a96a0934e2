// Package baseline implements the CDN-style YOSO MPC of Gentry et al.
// (CRYPTO 2021) — the comparison point of the paper's evaluation. The
// circuit is evaluated gate by gate on ciphertexts under a system-wide
// threshold key: addition is free, and every multiplication consumes a
// Beaver triple and two threshold decryptions, so each committee member
// publishes two partial decryptions per gate and reshares its tsk share to
// the next committee. Online communication is therefore Θ(n) elements per
// gate — the cost the packed protocol in internal/core removes.
//
// The implementation runs on the same substrate (threshold encryption,
// bulletin board, YOSO roles, adversary) and the same instrumentation, so
// byte counts are directly comparable.
package baseline

import (
	"errors"
	"fmt"
	"math/big"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/committee"
	"yosompc/internal/field"
	"yosompc/internal/nizk"
	"yosompc/internal/pke"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// TE is the threshold-encryption surface the baseline needs.
type TE = committee.TE

// Params configures a baseline run.
type Params struct {
	// N is the committee size and T the corruption bound (t < n/2).
	N, T int
	// TE is the threshold-encryption backend.
	TE TE
	// PKE is the role-key encryption backend.
	PKE pke.Scheme
	// Adversary corrupts committees; nil means all-honest.
	Adversary *yoso.Adversary
}

// Errors reported by the baseline.
var (
	ErrBadParams = errors.New("baseline: invalid parameters")
	ErrNotEnough = committee.ErrNotEnough
)

// Validate checks the parameters.
func (p *Params) Validate() error {
	switch {
	case p.N < 1 || p.T < 0 || p.T >= p.N:
		return fmt.Errorf("%w: n=%d t=%d", ErrBadParams, p.N, p.T)
	case 2*p.T+1 > p.N:
		return fmt.Errorf("%w: needs honest majority, n=%d t=%d", ErrBadParams, p.N, p.T)
	case p.TE == nil || p.PKE == nil:
		return fmt.Errorf("%w: missing backend", ErrBadParams)
	}
	return nil
}

// Result is the outcome of a baseline run.
type Result struct {
	// Outputs maps each client to its outputs in gate order.
	Outputs map[int][]field.Element
	// Report is the communication breakdown.
	Report comm.Report
	// Excluded lists roles whose proofs failed or who stayed silent.
	Excluded []string
	// Rounds is the number of sequential broadcast rounds.
	Rounds int
}

// Protocol is a configured baseline instance.
type Protocol struct {
	params Params
	circ   *circuit.Circuit
	assign *yoso.Assignment
	// rt is the committee-step runtime shared with internal/core; the
	// baseline's proof labels live under their own prefix.
	rt *committee.Runner
}

// New configures a baseline run. A nil meter creates a private one.
func New(params Params, circ *circuit.Circuit, meter *comm.Meter) (*Protocol, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if circ == nil {
		return nil, fmt.Errorf("%w: nil circuit", ErrBadParams)
	}
	auth, err := nizk.NewAuthority()
	if err != nil {
		return nil, err
	}
	board := transport.NewBoard(meter)
	assign := yoso.NewAssignment(board, params.PKE, params.Adversary)
	// Unpacked Shamir reconstruction needs t+1 shares, so committee
	// manifests advertise that quorum for fail-stop margin tracking.
	assign.Quorum = params.T + 1
	return &Protocol{
		params: params,
		circ:   circ,
		assign: assign,
		rt:     &committee.Runner{Board: board, Auth: auth, TE: params.TE, Prefix: "baseline/"},
	}, nil
}

// Board exposes the bulletin board.
func (p *Protocol) Board() *transport.Board { return p.rt.Board }

type run struct {
	p          *Protocol
	rt         *committee.Runner
	clients    map[int]*yoso.Role
	wireCt     []tte.Ciphertext
	beaver     map[int]*triple
	depthCache map[int]int
}

type triple struct{ a, b, c tte.Ciphertext }

// Run executes the baseline protocol.
func (p *Protocol) Run(inputs map[int][]field.Element) (*Result, error) {
	for _, client := range p.circ.Clients() {
		if len(inputs[client]) != p.circ.InputCount(client) {
			return nil, fmt.Errorf("baseline: client %d supplied %d of %d inputs",
				client, len(inputs[client]), p.circ.InputCount(client))
		}
	}
	r := &run{p: p, rt: p.rt, clients: map[int]*yoso.Role{}, beaver: map[int]*triple{}}
	r.wireCt = make([]tte.Ciphertext, p.circ.NumWires())

	// Setup: TKGen + client keys.
	tpk, shares, err := p.params.TE.KeyGen(p.params.N, p.params.T)
	if err != nil {
		return nil, err
	}
	r.rt.TPK = tpk
	tpkEnc, err := p.params.TE.EncodePublicKey(tpk)
	if err != nil {
		return nil, fmt.Errorf("baseline: encoding tpk announcement: %w", err)
	}
	r.rt.Board.Post("setup", comm.PhaseSetup, comm.CatCRS, tpkEnc)
	for _, id := range p.circ.Clients() {
		role, err := p.assign.NewKnownParty("client", id, comm.PhaseSetup)
		if err != nil {
			return nil, err
		}
		r.clients[id] = role
	}

	if err := r.offlineBeaver(); err != nil {
		return nil, fmt.Errorf("baseline offline: %w", err)
	}
	outputs, err := r.online(inputs, shares)
	if err != nil {
		return nil, fmt.Errorf("baseline online: %w", err)
	}
	// bOff1, bOff2, one client-input round, one committee per layer, bOut.
	return &Result{
		Outputs:  outputs,
		Report:   r.rt.Board.Report(),
		Excluded: r.rt.Excluded,
		Rounds:   4 + p.circ.Depth(),
	}, nil
}

// offlineBeaver prepares one encrypted Beaver triple per multiplication
// gate, exactly as in the packed protocol's Step 1.
func (r *run) offlineBeaver() error {
	p := r.p.params
	var muls []int
	for i, g := range r.p.circ.Gates() {
		if g.Kind == circuit.KindMul {
			muls = append(muls, i)
		}
	}
	if len(muls) == 0 {
		return nil
	}
	b1, err := r.p.assign.FormCommittee("bOff1", p.N, comm.PhaseOffline)
	if err != nil {
		return err
	}
	b2, err := r.p.assign.FormCommittee("bOff2", p.N, comm.PhaseOffline)
	if err != nil {
		return err
	}
	cA, cB, cC, err := r.rt.Beaver(b1, b2, len(muls))
	if err != nil {
		return err
	}
	for g, gi := range muls {
		r.beaver[gi] = &triple{a: cA[g], b: cB[g], c: cC[g]}
	}
	return nil
}

// online evaluates the circuit gate by gate: clients post encrypted
// inputs; one committee per multiplication layer opens the Beaver masks
// and reshares tsk onward; a final committee re-encrypts outputs.
func (r *run) online(inputs map[int][]field.Element, shares []tte.KeyShare) (map[int][]field.Element, error) {
	p := r.p.params
	te := p.TE
	gates := r.p.circ.Gates()
	// Inputs: each client broadcasts TEnc(tpk, v) per input wire.
	for _, client := range r.p.circ.Clients() {
		inGates := r.p.circ.InputGates(client)
		if len(inGates) == 0 {
			continue
		}
		ms := make([]*big.Int, len(inGates))
		for j := range inGates {
			ms[j] = committee.FieldCoeff(inputs[client][j])
		}
		cts, ok, err := committee.Speak(r.rt, r.clients[client],
			committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatInput, Label: "input"},
			func() (committee.CtBundle, error) {
				return tte.EncryptAll(te, r.rt.TPK, ms, committee.BoundP, r.rt.Workers)
			}, len(inGates)*r.rt.TPK.CiphertextSize())
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: client %d input rejected", ErrNotEnough, client)
		}
		for j, gi := range inGates {
			r.wireCt[gates[gi].Out] = cts[j]
		}
	}

	// Committees: one per multiplication layer plus the output committee.
	depth := r.p.circ.Depth()
	committees := make([]*yoso.Committee, depth+1)
	for l := range committees {
		name := "bOut"
		if l < depth {
			name = fmt.Sprintf("bLayer%d", l+1)
		}
		c, err := r.p.assign.FormCommittee(name, p.N, comm.PhaseOnline)
		if err != nil {
			return nil, err
		}
		committees[l] = c
	}
	tsk, err := r.rt.DealShares(committees[0], shares)
	if err != nil {
		return nil, err
	}

	// Group mul gates by layer.
	byLayer := map[int][]int{}
	for i, g := range gates {
		if g.Kind == circuit.KindMul {
			byLayer[r.mulDepthOf(i)] = append(byLayer[r.mulDepthOf(i)], i)
		}
	}

	ones := committee.Ones(2)
	for l := 1; l <= depth; l++ {
		// Linear propagation up to this layer.
		if err := r.propagateLinear(); err != nil {
			return nil, err
		}
		layerGates := byLayer[l]
		open := make([]committee.Opening, 0, 2*len(layerGates))
		for _, gi := range layerGates {
			g := gates[gi]
			bt := r.beaver[gi]
			eps, err := te.Eval(r.rt.TPK, []tte.Ciphertext{r.wireCt[g.A], bt.a}, ones)
			if err != nil {
				return nil, err
			}
			del, err := te.Eval(r.rt.TPK, []tte.Ciphertext{r.wireCt[g.B], bt.b}, ones)
			if err != nil {
				return nil, err
			}
			open = append(open, committee.Opening{Ct: eps}, committee.Opening{Ct: del})
		}
		opened, err := r.rt.DecryptStep(tsk, committees[l-1],
			committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: fmt.Sprintf("layer%d", l)},
			open, committees[l])
		if err != nil {
			return nil, err
		}
		// Apply the Beaver identity c^xy = ε·c^y + (p−δ)·c^a + c^c.
		for j, gi := range layerGates {
			g := gates[gi]
			bt := r.beaver[gi]
			eps, del := field.FromBig(opened[2*j]), field.FromBig(opened[2*j+1])
			out, err := te.Eval(r.rt.TPK,
				[]tte.Ciphertext{r.wireCt[g.B], bt.a, bt.c},
				[]*big.Int{committee.FieldCoeff(eps), committee.FieldCoeff(del.Neg()), big.NewInt(1)})
			if err != nil {
				return nil, err
			}
			r.wireCt[g.Out] = out
		}
	}
	if err := r.propagateLinear(); err != nil {
		return nil, err
	}

	// Output: the final committee re-encrypts output wires to clients, who
	// combine and unmask.
	type outGate struct {
		gi, client int
		wire       circuit.WireID
	}
	var outs []outGate
	var openings []committee.Opening
	for _, client := range r.p.circ.Clients() {
		for _, gi := range r.p.circ.OutputGates(client) {
			outs = append(outs, outGate{gi: gi, client: client, wire: gates[gi].A})
			openings = append(openings, committee.Opening{Ct: r.wireCt[gates[gi].A], Key: r.clients[client].PublicKey()})
		}
	}
	res, err := r.rt.TskStep(tsk, committees[depth],
		committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatOutput, Label: "output"}, openings, nil)
	if err != nil {
		return nil, err
	}
	outputs := map[int][]field.Element{}
	for j, og := range outs {
		v, err := r.rt.CombineSealed(r.clients[og.client].SecretKey(), res.Sealed[j], r.wireCt[og.wire])
		if err != nil {
			return nil, fmt.Errorf("output %d: %w", og.gi, err)
		}
		outputs[og.client] = append(outputs[og.client], field.FromBig(v))
	}
	return outputs, nil
}

// mulDepthOf computes a gate's multiplicative depth via the circuit's
// batch metadata (MulBatches with k=1 yields one gate per batch).
func (r *run) mulDepthOf(gi int) int {
	if r.depthCache == nil {
		r.depthCache = map[int]int{}
		for _, mb := range r.p.circ.MulBatches(1) {
			for _, g := range mb.Gates {
				r.depthCache[g] = mb.Layer
			}
		}
	}
	return r.depthCache[gi]
}

// propagateLinear fills λ-free linear wires from their inputs.
func (r *run) propagateLinear() error {
	te := r.p.params.TE
	pm1 := new(big.Int).SetUint64(field.Modulus - 1)
	for _, g := range r.p.circ.Gates() {
		if g.Kind != circuit.KindAdd && g.Kind != circuit.KindSub &&
			g.Kind != circuit.KindConstMul && g.Kind != circuit.KindConst {
			continue
		}
		if r.wireCt[g.Out] != nil {
			continue
		}
		switch g.Kind {
		case circuit.KindConst:
			// Anyone can encrypt a public constant under tpk.
			ct, err := te.Encrypt(r.rt.TPK, committee.FieldCoeff(g.Const), committee.BoundP)
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		case circuit.KindAdd:
			if r.wireCt[g.A] == nil || r.wireCt[g.B] == nil {
				continue
			}
			ct, err := te.Eval(r.rt.TPK, []tte.Ciphertext{r.wireCt[g.A], r.wireCt[g.B]}, committee.Ones(2))
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		case circuit.KindSub:
			if r.wireCt[g.A] == nil || r.wireCt[g.B] == nil {
				continue
			}
			ct, err := te.Eval(r.rt.TPK, []tte.Ciphertext{r.wireCt[g.A], r.wireCt[g.B]},
				[]*big.Int{big.NewInt(1), pm1})
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		case circuit.KindConstMul:
			if r.wireCt[g.A] == nil {
				continue
			}
			ct, err := te.Eval(r.rt.TPK, []tte.Ciphertext{r.wireCt[g.A]}, []*big.Int{committee.FieldCoeff(g.Const)})
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		}
	}
	return nil
}
