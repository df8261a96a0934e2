package core

import (
	"fmt"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/committee"
	"yosompc/internal/field"
	"yosompc/internal/modexp"
	"yosompc/internal/nizk"
	"yosompc/internal/pke"
	"yosompc/internal/sharing"
	"yosompc/internal/slotpack"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// Protocol is a configured instance of the paper's YOSO MPC protocol for
// one circuit. Create it with New and execute it with Run.
type Protocol struct {
	params Params
	circ   *circuit.Circuit
	board  *transport.Board
	auth   *nizk.Authority
	// early marks the clients whose output λ's OffDec seals to them in
	// preprocessing (circuit.EarlyOutputs); OnC1 seals the others' once
	// the inputs are posted.
	early map[int]bool
}

// Result is the outcome of a protocol run.
type Result struct {
	// Outputs maps each client to its output values in gate order.
	Outputs map[int][]field.Element
	// Report is the communication breakdown of the run: the bytes it posted,
	// not those of earlier runs on the same Protocol or meter.
	Report comm.Report
	// Excluded lists roles whose proofs failed verification (malicious)
	// and roles that never spoke (fail-stop).
	Excluded []string
	// Audit is the run's key-usage trace (paper Figure 1).
	Audit []AuditEvent
	// Rounds is the number of sequential broadcast rounds: one per
	// committee the run formed, plus one for the clients' parallel input
	// speaks.
	Rounds int
}

// New configures a protocol run. A nil meter creates a private one.
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
	board.SetProc(params.Proc)
	return &Protocol{
		params: params,
		circ:   circ,
		board:  board,
		auth:   auth,
		early:  circ.EarlyOutputs(),
	}, nil
}

// Board exposes the bulletin board (for inspection in tests and tools).
func (p *Protocol) Board() *transport.Board { return p.board }

// Run executes setup, offline and online phases and returns the outputs.
// It is Prepare followed by a single Execute; callers that want the
// deployment-realistic split (preprocess ahead of time, run online when
// inputs arrive) use those directly.
func (p *Protocol) Run(inputs map[int][]field.Element) (*Result, error) {
	if err := p.circ.CheckInputs(inputs); err != nil {
		return nil, err
	}
	prepared, err := p.Prepare()
	if err != nil {
		return nil, err
	}
	return prepared.Execute(inputs)
}

// batchState carries everything the protocol accumulates for one batch of
// (at most) k multiplication gates.
type batchState struct {
	circuit.MulBatch
	// k is the effective packing width (may be below params.K on the
	// tail batch of a layer).
	k int
	// helpers[kind][j] are the extracted helper encryptions for packing
	// (kind 0 = left λ, 1 = right λ, 2 = Γ), t per vector.
	helpers [][]tte.Ciphertext
	// packedLeft/packedRight/packedGamma are the per-index packed-share
	// ciphertexts under tpk (offline Step 4), dropped once Step 6 has
	// slot-packed them into the layer members' groups.
	packedLeft, packedRight, packedGamma []tte.Ciphertext
}

// run is the mutable state of one protocol execution.
type run struct {
	p *Protocol
	// rt is the committee-step runtime: board, backends, tpk, worker pool,
	// the open phase span and the excluded-role list.
	rt *committee.Runner
	// assign forms the run's committees; how many it formed gives the
	// run's rounds.
	assign *yoso.Assignment
	// start is the board's byte count when the run began, and audit the
	// run's key-usage trace: a Result reports the run's own traffic and
	// decryptions, whatever ran on the Protocol before.
	start comm.Report
	audit *Auditor

	// committees (see the schedule in the package comment; OffR and OffB
	// live only inside their offline steps). offRe is nil unless some layer
	// takes KFFs. OnC1 is formed offline, so the last offline tsk holder
	// reshares tsk to its role keys before any input exists; it speaks
	// after the input round, once the layers' role keys are posted, and is
	// the last tsk holder.
	offDec, offRe, onC1 *yoso.Committee
	layers              []*yoso.Committee

	// clients
	clients map[int]*yoso.Role

	// dealt holds the dealer's epoch-0 tsk shares from setup until the
	// offline phase forms offDec to receive them; from then on tsk tracks
	// the key from committee to committee.
	dealt []tte.KeyShare
	tsk   *committee.Tsk

	// keys-for-future: role i+1 of layer l+1 owns kff[l][i], and kff[l] is
	// nil where the layer's shares fit one group (slotpack.Lists.NeedsKFF)
	kff [][]kffEntry

	// per-wire λ ciphertexts under tpk
	wireCt []tte.Ciphertext

	// per-mul-gate products from OffB, over the gate's λ^β: A = c^{λ^β},
	// B = c^e and C ≡ −e·λ^β (indexed by gate index in circ.Gates())
	products map[int]committee.Triple

	// per-mul-gate Γ ciphertexts (λ^α·λ^β − λ^γ under tpk)
	gammaCt map[int]tte.Ciphertext

	// batches in layer order
	batches []*batchState

	// lists are the static slot widths of everything a reader opens in one
	// step (see openings.go) — a function of the circuit, n, t and k alone.
	lists slotpack.Lists

	// inputOpen[ci] are the slot-packed Re-encrypt openings of the input-wire
	// λ's of circ.Clients()[ci], sealed to its setup key by OffDec (offline
	// Step 5), and layerOpen[l][i] those of the packed left/right/Γ shares of
	// layer l+1's batches, sealed to the KFF of its role i+1 by OffRe (Step
	// 6) or, where kff[l] is nil, packed offline and sealed to the role's key
	// by OnC1. outputOpen[ci] are those of the client's output-wire λ's,
	// sealed to its setup key by OffDec or, for a client whose outputs are
	// not early, by OnC1.
	inputOpen  [][]group
	layerOpen  [][][]group
	outputOpen [][]group

	// public μ values per wire
	mu []field.Element

	// rootSp is the whole-run span (nil when tracing is disabled — every
	// use is a nil-receiver no-op).
	rootSp *telemetry.Span
}

// kffEntry is one key-for-future: the public key and the TEnc of the
// secret, one ciphertext in one slot, as the one group OnC1 re-encrypts to
// the owner's role key (its envelopes once OnC1 has spoken).
type kffEntry struct {
	pub    pke.PublicKey
	secret []group
}

// --- shared helpers ---------------------------------------------------

// newRun binds a fresh execution to the committee runtime, to a role
// assignment and an audit trace of its own, and to the board's byte count
// as it starts.
func (p *Protocol) newRun() *run {
	assign := yoso.NewAssignment(p.board, p.params.PKE, p.params.Adversary)
	// Committee manifests advertise the packed reconstruction quorum, so a
	// board observer knows how many fail-stops each committee tolerates; a
	// layer role's Re-encrypts need survive no more absences than that, so
	// they are answered from its window (committee.Runner.Quorum).
	assign.Quorum = p.params.ReconstructionThreshold()
	audit := &Auditor{}
	return &run{p: p, assign: assign, start: p.board.Report(), audit: audit, rt: &committee.Runner{
		Board:   p.board,
		Auth:    p.auth,
		TE:      p.params.TE,
		Quorum:  assign.Quorum,
		Workers: p.params.EffectiveWorkers(),
		ShareRecovered: func(phase comm.Phase) {
			audit.Record(phase, ValTskShare, KeyRole)
		},
	}}
}

// report is the bytes the run has posted so far.
func (r *run) report() comm.Report { return r.p.board.Report().Diff(r.start) }

// initTelemetry opens the run's root span, bridges the tracer to the
// board meter (spans then carry byte deltas), and builds the worker-pool
// observer. With telemetry disabled everything stays nil.
func (r *run) initTelemetry() {
	pr := &r.p.params
	pr.Trace.BindMeter(r.p.board.Meter())
	// Name the trace export after the process so merged cross-process
	// views attribute this run's spans (the board already carries Proc on
	// every posting via SetProc in New).
	if pr.Proc != "" {
		pr.Trace.SetProc(pr.Proc)
	}
	r.rootSp = pr.Trace.Start("protocol")
	r.rt.Span = r.rootSp
	r.p.board.SetTraceSpan(r.rootSp.ID())
	r.rootSp.SetInt("n", int64(pr.N))
	r.rootSp.SetInt("t", int64(pr.T))
	r.rootSp.SetInt("k", int64(pr.K))
	r.rootSp.SetInt("workers", int64(pr.EffectiveWorkers()))
	if pr.Metrics != nil {
		r.rt.Obs = telemetry.NewPoolStats(pr.Metrics, "core.pool", pr.EffectiveWorkers())
		// Mirror the share-algebra domain-cache and modexp table-cache
		// counters into this run's registry (process-global caches: last
		// instrumented run wins).
		sharing.Instrument(pr.Metrics)
		modexp.Instrument(pr.Metrics)
	}
}

// beginPhase opens a phase span (setup/offline/online) under the run
// root; step spans child from it until endPhase.
func (r *run) beginPhase(name string) {
	r.rt.Span = r.rootSp.Child("phase:" + name)
	// Postings made during the phase carry the phase span's ID in their
	// trace context, linking board entries back to this trace.
	r.p.board.SetTraceSpan(r.rt.Span.ID())
}

// endPhase waits until every mirror of the board has its server's answer
// for the phase's postings, then closes the current phase span; steps
// outside any phase child from the run root.
func (r *run) endPhase() {
	r.p.board.Sync()
	r.rt.Span.End()
	r.rt.Span = r.rootSp
	r.p.board.SetTraceSpan(r.rootSp.ID())
}

// stepSpan opens a span under the current phase. Nil — and
// allocation-free — when tracing is disabled.
func (r *run) stepSpan(name string) *telemetry.Span { return r.rt.Span.Child(name) }
