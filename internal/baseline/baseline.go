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
	"yosompc/internal/postlen"
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
	// Report is the communication breakdown of the run: the bytes it posted,
	// not those of earlier runs on the same Protocol or meter.
	Report comm.Report
	// Excluded lists roles whose proofs failed or who stayed silent.
	Excluded []string
	// Rounds is the number of sequential broadcast rounds: one per
	// committee the run formed, plus one for the clients' input speaks.
	Rounds int
}

// Protocol is a configured baseline instance.
type Protocol struct {
	params Params
	circ   *circuit.Circuit
	// rt is the committee-step runtime shared with internal/core; the
	// baseline's proofs are attested under its own authority. Each run
	// steps on a copy of its own, so its tpk and excluded roles are the
	// run's.
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
	return &Protocol{
		params: params,
		circ:   circ,
		rt:     &committee.Runner{Board: transport.NewBoard(meter), Auth: auth, TE: params.TE},
	}, nil
}

// Board exposes the bulletin board.
func (p *Protocol) Board() *transport.Board { return p.rt.Board }

type run struct {
	p  *Protocol
	rt *committee.Runner
	// assign forms the run's committees; how many it formed gives the
	// run's rounds.
	assign  *yoso.Assignment
	clients map[int]*yoso.Role
	wireCt  []tte.Ciphertext
	beaver  map[int]committee.Triple
}

// Run executes the baseline protocol.
func (p *Protocol) Run(inputs map[int][]field.Element) (*Result, error) {
	if err := p.circ.CheckInputs(inputs); err != nil {
		return nil, err
	}
	// A mirrored run ends only when the mirrors' servers hold all of it.
	defer p.rt.Board.Sync()
	start := p.rt.Board.Report()
	assign := yoso.NewAssignment(p.rt.Board, p.params.PKE, p.params.Adversary)
	// Unpacked Shamir reconstruction needs t+1 shares, so committee
	// manifests advertise that quorum for fail-stop margin tracking.
	assign.Quorum = p.params.T + 1
	rt := *p.rt
	r := &run{p: p, rt: &rt, assign: assign, clients: map[int]*yoso.Role{}}
	r.wireCt = make([]tte.Ciphertext, p.circ.NumWires())

	// Setup: TKGen + client keys.
	tpk, shares, err := p.params.TE.KeyGen(p.params.N, p.params.T)
	if err != nil {
		return nil, err
	}
	r.rt.SetKey(tpk)
	tpkEnc, err := p.params.TE.EncodePublicKey(tpk)
	if err != nil {
		return nil, fmt.Errorf("baseline: encoding tpk announcement: %w", err)
	}
	r.rt.Board.Post("setup", comm.PhaseSetup, comm.CatCRS, tpkEnc)
	for _, id := range p.circ.Clients() {
		role, err := assign.NewKnownParty("client", id, comm.PhaseSetup)
		if err != nil {
			return nil, err
		}
		r.clients[id] = role
	}

	if r.beaver, err = r.offline(); err != nil {
		return nil, fmt.Errorf("baseline offline: %w", err)
	}
	outputs, err := r.online(inputs, shares)
	if err != nil {
		return nil, fmt.Errorf("baseline online: %w", err)
	}
	return &Result{
		Outputs:  outputs,
		Report:   r.rt.Board.Report().Diff(start),
		Excluded: r.rt.Excluded,
		Rounds:   assign.Committees() + 1,
	}, nil
}

// offline prepares one Beaver triple per multiplication gate, as in the
// packed protocol's Step 1 but without extraction (m′ = 1) and with CDN's
// two committees: bOff1 contributes the a's, bOff2 the b's and c's, one
// contribution per member per a and b. A circuit without a multiplication
// forms neither.
func (r *run) offline() (map[int]committee.Triple, error) {
	muls := r.p.circ.NumMul()
	if muls == 0 {
		return nil, nil
	}
	off1, err := r.assign.FormCommittee("bOff1", r.p.params.N, comm.PhaseOffline)
	if err != nil {
		return nil, err
	}
	a, err := r.rt.RandomStep(off1, committee.Spec{Phase: comm.PhaseOffline, Cat: comm.CatBeaver, Label: "beaver-a"}, []int{muls}, 1)
	if err != nil {
		return nil, err
	}
	return r.rt.Beaver(r.assign, "bOff2", r.p.params.N, r.p.circ, a[0], 1, false)
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
		in, ok, err := committee.Speak(r.rt, r.clients[client],
			committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatInput, Label: "input",
				Len: postlen.Posting{Ciphertexts: len(inGates)}.Len(r.rt.Sizes)},
			func() ([]byte, error) {
				return r.rt.CtPosting(te.EncryptMany(r.rt.TPK, ms, committee.BoundP, r.rt.Workers))
			})
		if err != nil {
			return nil, err
		}
		cts, err := te.DecodeCiphertexts(r.rt.TPK, committee.FieldBounds(len(inGates)), in.Wire)
		if !ok || err != nil {
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
		c, err := r.assign.FormCommittee(name, p.N, comm.PhaseOnline)
		if err != nil {
			return nil, err
		}
		committees[l] = c
	}
	tsk, err := r.rt.DealShares(committees[0], shares)
	if err != nil {
		return nil, err
	}

	if err := r.propagateLinear(0); err != nil {
		return nil, err
	}
	// One batch per layer: every multiplication gate of layer mb.Layer. The
	// layer's committee opens the gates' ε/δ masks, and everyone applies the
	// Beaver identity.
	for _, mb := range r.p.circ.MulBatches(r.p.circ.NumMul()) {
		l := mb.Layer
		masked, err := r.rt.Masked(r.p.circ, mb.Gates, r.beaver, r.wireCt, false)
		if err != nil {
			return nil, err
		}
		open := make([]committee.Opening, len(masked))
		for j, ct := range masked {
			open[j].Ct = ct
		}
		opened, err := r.rt.DecryptStep(tsk, committees[l-1],
			committee.Spec{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: fmt.Sprintf("layer%d", l)},
			open, committees[l])
		if err != nil {
			return nil, err
		}
		for j, gi := range mb.Gates {
			g := gates[gi]
			cts, coeffs := r.beaver[gi].Product(field.FromBig(opened[2*j]), field.FromBig(opened[2*j+1]), r.wireCt[g.B])
			if r.wireCt[g.Out], err = te.Eval(r.rt.TPK, cts, coeffs); err != nil {
				return nil, err
			}
		}
		if err := r.propagateLinear(l); err != nil {
			return nil, err
		}
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

// propagateLinear fills the wires of the linear gates of depth d, once the
// inputs (d = 0) or layer d are encrypted: TEval of the gate's terms, and a
// public constant encrypted under tpk, which anyone can do.
func (r *run) propagateLinear(d int) error {
	gates := r.p.circ.Gates()
	for _, gi := range r.p.circ.LinearAt(d) {
		terms, k := gates[gi].Terms()
		var ct tte.Ciphertext
		var err error
		if len(terms) == 0 {
			ct, err = r.p.params.TE.Encrypt(r.rt.TPK, committee.FieldCoeff(k), committee.BoundP)
		} else {
			ct, err = r.rt.EvalTerms(terms, r.wireCt)
		}
		if err != nil {
			return err
		}
		r.wireCt[gates[gi].Out] = ct
	}
	return nil
}
