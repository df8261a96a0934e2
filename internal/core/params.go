// Package core implements the paper's YOSO MPC protocol (Section 5): the
// trusted setup with keys-for-future (KFF) for the online layer roles, whose
// keys are unknown until the online phase (clients are known parties, so
// preprocessing seals to their setup keys directly), the offline phase
// preparing packed wire randomness under a linearly homomorphic threshold
// encryption, and the online phase computing μ = v − λ openings with O(1)
// amortized communication per gate.
//
// Committee schedule (one broadcast per role, per the YOSO model):
//
//	offline:  OffR (wire randomness and packing helpers)
//	          → OffB (masks e and products into each gate's λ^β), formed
//	            only when the circuit has a multiplication gate
//	          → OffDec (holds tsk epoch 0: decrypts ε, re-encrypts the
//	            input-wire λ's and the early clients' output-wire λ's to
//	            their clients' setup keys, reshares tsk to OffRe, or to OnC1
//	            where OffRe is not formed)
//	          → OffRe, formed only when some layer takes KFFs
//	            (re-encrypts those layers' λ/Γ packed shares to their roles'
//	            KFFs, reshares tsk to OnC1)
//	online:   clients publish μ for their input wires
//	          → OnC1, formed offline (re-encrypts to each layer role's key
//	            its KFF secret key or its one share group, and the output
//	            λ's of the clients they may not reach before the inputs are
//	            posted (circuit.EarlyOutputs) to those clients; the last tsk
//	            holder)
//	          → one committee per multiplication layer publishes μ-shares
//	          → each client unmasks its outputs v = μ + λ
//
// A Re-encrypt addressed to a layer role (OffRe's and OnC1's) is answered
// by the role's window of n − 2(k−1) tsk members, not by all n: the layer
// needs t + 2(k−1) + 1 speakers, so it tolerates no more absences than the
// window leaves t + 1 answers through (committee.TskStep).
//
// All "everyone computes" steps (homomorphic evaluation over public
// ciphertexts, share reconstruction from public postings) are executed once
// by the driver, as any bulletin-board observer could.
package core

import (
	"errors"
	"fmt"

	"yosompc/internal/circuit"
	"yosompc/internal/committee"
	"yosompc/internal/parallel"
	"yosompc/internal/pke"
	"yosompc/internal/telemetry"
	"yosompc/internal/yoso"
)

// TE is the threshold-encryption surface the protocol needs: the paper's
// eight-algorithm API plus wire serialization.
type TE = committee.TE

// Params configures a protocol run.
type Params struct {
	// N is the committee size.
	N int
	// T is the per-committee corruption bound; the protocol requires
	// T + 2(K−1) + 1 ≤ N (the reconstruction threshold of §5.3).
	T int
	// K is the packing factor (≈ N·ε, or ≈ N·ε/2 in fail-stop mode).
	K int
	// TE is the threshold-encryption backend.
	TE TE
	// PKE is the role/KFF encryption backend.
	PKE pke.Scheme
	// Adversary corrupts committees; nil means all-honest.
	Adversary *yoso.Adversary
	// Trace, when non-nil, receives hierarchical spans (protocol → phase
	// → committee step → member / gate batch) with wall-clock, board-byte
	// deltas, and worker attribution. Nil disables tracing at zero cost:
	// the instrumented paths call through nil-receiver no-ops.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, receives the run's counters, gauges, and
	// histograms (worker-pool utilization, queue depth). Nil disables
	// metrics at zero cost.
	Metrics *telemetry.Registry
	// Proc names the OS process for cross-process correlation: postings
	// carry it in their trace context (so a shared boardd can attribute
	// entries) and Chrome trace exports embed it (so monitor.MergeTraces
	// can align this process's spans onto the board timeline). Empty for
	// single-process runs; at most 255 bytes.
	Proc string
	// Workers bounds the worker-pool parallelism of the execution engine:
	// committee-member contribution loops and the driver's "everyone
	// computes" loops (contribution sums, homomorphic packing, opening
	// combination) fan out over at most Workers goroutines. 0 (the
	// default) means runtime.NumCPU(); 1 forces the fully serial path.
	// The worker count never changes what is produced: posted bundles,
	// metered byte counts, and audit totals are identical for every value
	// (see EffectiveWorkers).
	Workers int
	// Robust switches the online μ-opening to information-theoretic
	// guaranteed output delivery: each layer is an unattested committee
	// step (no proofs; a malicious member's garbage is decoded like any
	// share) and Berlekamp–Welch corrects the lies out. This saves the
	// per-layer proof broadcasts but needs the stronger committee bound
	// 3T + 2(K−1) + 1 ≤ N (degree + 2·errors + 1 shares to decode).
	Robust bool
}

// Errors reported by parameter validation and the run driver.
var (
	ErrBadParams   = errors.New("core: invalid parameters")
	ErrNotEnough   = committee.ErrNotEnough
	ErrWrongInputs = circuit.ErrWrongInputs
)

// Validate checks structural soundness of the parameters.
func (p *Params) Validate() error {
	switch {
	case p.N < 1:
		return fmt.Errorf("%w: n=%d", ErrBadParams, p.N)
	case p.T < 0 || p.T >= p.N:
		return fmt.Errorf("%w: t=%d for n=%d", ErrBadParams, p.T, p.N)
	case p.K < 1:
		return fmt.Errorf("%w: k=%d", ErrBadParams, p.K)
	case p.T+2*(p.K-1)+1 > p.N:
		return fmt.Errorf("%w: reconstruction threshold t+2(k-1)+1 = %d exceeds n = %d",
			ErrBadParams, p.T+2*(p.K-1)+1, p.N)
	case p.Robust && 3*p.T+2*(p.K-1)+1 > p.N:
		return fmt.Errorf("%w: robust decoding threshold 3t+2(k-1)+1 = %d exceeds n = %d",
			ErrBadParams, 3*p.T+2*(p.K-1)+1, p.N)
	case p.Workers < 0:
		return fmt.Errorf("%w: workers=%d", ErrBadParams, p.Workers)
	case len(p.Proc) > 255:
		// Proc travels in every entry's trace context as a u8-length-
		// prefixed string (docs/WIRE.md); past that the codec panics.
		return fmt.Errorf("%w: process name is %d bytes, the wire format carries at most 255",
			ErrBadParams, len(p.Proc))
	case p.TE == nil:
		return fmt.Errorf("%w: missing TE backend", ErrBadParams)
	case p.PKE == nil:
		return fmt.Errorf("%w: missing PKE backend", ErrBadParams)
	}
	return nil
}

// ReconstructionThreshold returns the number of μ-shares needed to open a
// batch: t + 2(k−1) + 1 (paper §5.3).
func (p *Params) ReconstructionThreshold() int { return p.T + 2*(p.K-1) + 1 }

// EffectiveWorkers resolves the Workers knob: 0 (or any value below 1)
// means one worker per CPU, anything else is taken literally.
func (p *Params) EffectiveWorkers() int { return parallel.Normalize(p.Workers) }
