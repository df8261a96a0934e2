package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"yosompc/internal/comm"
	"yosompc/internal/field"
)

// The offline/online split is the deployment story of the paper: the
// circuit-dependent preprocessing runs ahead of time (committees churn
// through it whenever the network is idle), and once inputs arrive only
// the cheap online phase runs. Prepare/Execute expose that split: one
// Prepare produces the correlated randomness for exactly one Execute
// (λ-values and Beaver triples are one-time pads — reuse would leak
// linear relations between executions, so Execute enforces single use).

// ErrAlreadyExecuted rejects a second Execute on the same preprocessing.
var ErrAlreadyExecuted = errors.New("core: preprocessing already consumed; Prepare again")

// Prepared is the output of the setup + offline phases, waiting for
// inputs.
type Prepared struct {
	r    *run
	mu   sync.Mutex
	used bool
}

// Prepare runs Π_YOSO-Setup and Π_YOSO-Offline Steps 1–4 (everything that
// can happen before inputs exist). The returned Prepared supports exactly
// one Execute.
func (p *Protocol) Prepare() (*Prepared, error) {
	return p.PrepareContext(context.Background())
}

// PrepareContext is Prepare with cancellation: the run aborts between
// committee steps once ctx is done (a partially preprocessed run is
// discarded — correlations are never reused).
func (p *Protocol) PrepareContext(ctx context.Context) (*Prepared, error) {
	r := p.newRun(ctx)
	r.initTelemetry()
	r.beginPhase("setup")
	r.logStep("setup phase starting", "n", p.params.N, "t", p.params.T, "k", p.params.K)
	if err := r.setup(); err != nil {
		r.endPhase()
		r.rootSp.End()
		return nil, fmt.Errorf("core: setup: %w", err)
	}
	r.endPhase()
	r.beginPhase("offline")
	r.logStep("offline phase starting", "muls", p.circ.NumMul(), "depth", p.circ.Depth())
	if err := r.offline(); err != nil {
		r.endPhase()
		r.rootSp.End()
		return nil, fmt.Errorf("core: offline: %w", err)
	}
	r.endPhase()
	r.rt.LogSpan(r.rootSp, "preprocessing complete",
		"offline-bytes", p.board.Report().Phase(comm.PhaseOffline))
	return &Prepared{r: r}, nil
}

// OfflineReport returns the communication spent so far (setup + offline).
func (pp *Prepared) OfflineReport() comm.Report { return pp.r.p.board.Report() }

// Execute runs the online phase on the prepared correlations. It consumes
// the preprocessing: a second call returns ErrAlreadyExecuted.
func (pp *Prepared) Execute(inputs map[int][]field.Element) (*Result, error) {
	pp.mu.Lock()
	if pp.used {
		pp.mu.Unlock()
		return nil, ErrAlreadyExecuted
	}
	pp.used = true
	pp.mu.Unlock()

	p := pp.r.p
	for _, client := range p.circ.Clients() {
		if len(inputs[client]) != p.circ.InputCount(client) {
			return nil, fmt.Errorf("%w: client %d supplied %d of %d inputs",
				ErrWrongInputs, client, len(inputs[client]), p.circ.InputCount(client))
		}
	}
	pp.r.beginPhase("online")
	pp.r.logStep("online phase starting")
	outputs, err := pp.r.online(inputs)
	pp.r.endPhase()
	pp.r.rootSp.End()
	if err != nil {
		return nil, fmt.Errorf("core: online: %w", err)
	}
	pp.r.rt.LogSpan(nil, "online phase complete", "online-bytes", p.board.Report().Phase(comm.PhaseOnline))
	return &Result{
		Outputs:  outputs,
		Report:   p.board.Report(),
		Excluded: pp.r.rt.Excluded,
		Audit:    p.audit.Events(),
		Rounds:   9 + p.circ.Depth(),
	}, nil
}
