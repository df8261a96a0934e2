package core

import (
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
// (λ-values and the product masks are one-time pads — reuse would leak
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

// Prepare runs Π_YOSO-Setup and Π_YOSO-Offline through Steps 5–6,
// OffDec's sealing of the early output λ's included (everything that can
// happen before inputs exist). The returned Prepared supports exactly one Execute.
func (p *Protocol) Prepare() (*Prepared, error) {
	r := p.newRun()
	r.initTelemetry()
	r.beginPhase("setup")
	if err := r.setup(); err != nil {
		r.endPhase()
		r.rootSp.End()
		return nil, fmt.Errorf("core: setup: %w", err)
	}
	r.endPhase()
	r.beginPhase("offline")
	if err := r.offline(); err != nil {
		r.endPhase()
		r.rootSp.End()
		return nil, fmt.Errorf("core: offline: %w", err)
	}
	r.endPhase()
	return &Prepared{r: r}, nil
}

// OfflineReport returns the communication this preparation has spent so far
// (setup + offline, and online once executed).
func (pp *Prepared) OfflineReport() comm.Report { return pp.r.report() }

// Execute runs the online phase on the prepared correlations. It consumes
// the preprocessing: a second call returns ErrAlreadyExecuted. Inputs that
// do not match the circuit are refused with ErrWrongInputs before anything
// is consumed, so a corrected call can still run.
func (pp *Prepared) Execute(inputs map[int][]field.Element) (*Result, error) {
	p := pp.r.p
	if err := p.circ.CheckInputs(inputs); err != nil {
		return nil, err
	}
	pp.mu.Lock()
	if pp.used {
		pp.mu.Unlock()
		return nil, ErrAlreadyExecuted
	}
	pp.used = true
	pp.mu.Unlock()

	pp.r.beginPhase("online")
	outputs, err := pp.r.online(inputs)
	pp.r.endPhase()
	pp.r.rootSp.End()
	if err != nil {
		return nil, fmt.Errorf("core: online: %w", err)
	}
	return &Result{
		Outputs:  outputs,
		Report:   pp.r.report(),
		Excluded: pp.r.rt.Excluded,
		Audit:    pp.r.audit.Events(),
		Rounds:   pp.r.assign.Committees() + 1,
	}, nil
}
