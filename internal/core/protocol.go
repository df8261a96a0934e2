package core

import (
	"context"
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
	assign *yoso.Assignment
	auth   *nizk.Authority
	audit  *Auditor
}

// Result is the outcome of a protocol run.
type Result struct {
	// Outputs maps each client to its output values in gate order.
	Outputs map[int][]field.Element
	// Report is the communication breakdown of the run.
	Report comm.Report
	// Excluded lists roles whose proofs failed verification (malicious)
	// and roles that never spoke (fail-stop).
	Excluded []string
	// Audit is the key-usage trace (paper Figure 1).
	Audit []AuditEvent
	// Rounds is the number of sequential broadcast rounds (committee
	// speaks; parallel client speaks count as one round).
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
	assign := yoso.NewAssignment(board, params.PKE, params.Adversary)
	// Committee manifests advertise the packed reconstruction quorum, so a
	// board observer knows how many fail-stops each committee tolerates.
	assign.Quorum = params.ReconstructionThreshold()
	return &Protocol{
		params: params,
		circ:   circ,
		board:  board,
		assign: assign,
		auth:   auth,
		audit:  &Auditor{},
	}, nil
}

// Board exposes the bulletin board (for inspection in tests and tools).
func (p *Protocol) Board() *transport.Board { return p.board }

// Run executes setup, offline and online phases and returns the outputs.
// It is Prepare followed by a single Execute; callers that want the
// deployment-realistic split (preprocess ahead of time, run online when
// inputs arrive) use those directly.
func (p *Protocol) Run(inputs map[int][]field.Element) (*Result, error) {
	for _, client := range p.circ.Clients() {
		if len(inputs[client]) != p.circ.InputCount(client) {
			return nil, fmt.Errorf("%w: client %d supplied %d of %d inputs",
				ErrWrongInputs, client, len(inputs[client]), p.circ.InputCount(client))
		}
	}
	prepared, err := p.Prepare()
	if err != nil {
		return nil, err
	}
	return prepared.Execute(inputs)
}

// beaverTriple holds the tpk-encrypted triple of one multiplication gate.
type beaverTriple struct {
	a, b, c tte.Ciphertext
}

// batchState carries everything the protocol accumulates for one batch of
// (at most) k multiplication gates.
type batchState struct {
	circuit.MulBatch
	// k is the effective packing width (may be below params.K on the
	// tail batch of a layer).
	k int
	// helpers[kind][j] are the summed helper encryptions for packing
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
	// cancellation, the open phase span and the excluded-role list.
	rt *committee.Runner

	// committees (see the schedule in the package comment)
	offB1, offB2, offR, offDec, offRe *yoso.Committee
	// offBridge holds tsk across the offline/online boundary: OffRe can
	// then speak entirely within the offline phase (all its targets are
	// KFFs and offBridge's role keys), and only this single-purpose
	// committee waits for the online role keys.
	offBridge   *yoso.Committee
	onC1, onOut *yoso.Committee
	layers      []*yoso.Committee

	// clients
	clients map[int]*yoso.Role

	// dealt holds the dealer's epoch-0 tsk shares from setup until the
	// offline phase forms offDec to receive them; from then on tsk tracks
	// the key from committee to committee.
	dealt []tte.KeyShare
	tsk   *committee.Tsk

	// keys-for-future: one per online mul-layer role and one per client
	kffLayer  [][]kffEntry // [layer][index-1]
	kffClient map[int]*kffEntry

	// per-wire λ ciphertexts under tpk
	wireCt []tte.Ciphertext

	// per-mul-gate Beaver triples (indexed by gate index in circ.Gates())
	beaver map[int]*beaverTriple

	// per-mul-gate Γ ciphertexts (λ^α·λ^β − λ^γ under tpk)
	gammaCt map[int]tte.Ciphertext

	// batches in layer order
	batches []*batchState

	// lists are the static slot widths of everything a reader opens in one
	// step (see openings.go) — a function of the circuit, n, t and k alone.
	lists slotpack.Lists

	// inputOpen[client] are the slot-packed Re-encrypt openings of the
	// client's input-wire λ's, addressed to its KFF (offline Step 5), and
	// layerOpen[l][i] those of the packed left/right/Γ shares of layer
	// l+1's batches, addressed to the KFF of its role i+1 (Step 6).
	inputOpen map[int][]group
	layerOpen [][][]group

	// public μ values per wire
	mu      []field.Element
	muKnown []bool

	// rootSp is the whole-run span (nil when tracing is disabled — every
	// use is a nil-receiver no-op).
	rootSp *telemetry.Span
}

// kffEntry is one key-for-future: the public key, the TEnc of the secret,
// and (after OnC1's step) the envelope re-encrypting the secret to the
// owner's role key.
type kffEntry struct {
	pub       pke.PublicKey
	secretCt  tte.Ciphertext
	delivered [][]byte // partial-decryption envelopes under the owner's role key (views of the OnC1 postings)
}

// --- shared helpers ---------------------------------------------------

// newRun binds a fresh execution to the committee runtime.
func (p *Protocol) newRun(ctx context.Context) *run {
	return &run{p: p, rt: &committee.Runner{
		Board:   p.board,
		Auth:    p.auth,
		TE:      p.params.TE,
		Ctx:     ctx,
		Workers: p.params.EffectiveWorkers(),
		Logger:  p.params.Logger,
		ShareRecovered: func(phase comm.Phase) {
			p.audit.Record(phase, ValTskShare, KeyRole)
		},
	}}
}

// logStep emits a structured progress event under the open phase span.
func (r *run) logStep(label string, attrs ...any) {
	r.rt.LogSpan(r.rt.Span, label, attrs...)
}

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

// endPhase closes the current phase span; steps outside any phase child
// from the run root.
func (r *run) endPhase() {
	r.rt.Span.End()
	r.rt.Span = r.rootSp
	r.p.board.SetTraceSpan(r.rootSp.ID())
}

// stepSpan opens a span under the current phase. Nil — and
// allocation-free — when tracing is disabled.
func (r *run) stepSpan(name string) *telemetry.Span { return r.rt.Span.Child(name) }
