// Package core implements the paper's YOSO MPC protocol (Section 5): the
// trusted setup with keys-for-future (KFF), the offline phase preparing
// packed wire randomness under a linearly homomorphic threshold encryption,
// and the online phase computing μ = v − λ openings with O(1) amortized
// communication per gate.
//
// Committee schedule (one broadcast per role, per the YOSO model):
//
//	offline:  OffR (wire randomness, packing helpers and Beaver a-parts)
//	          → OffB (Beaver b/c-parts), formed only when the circuit has a
//	            multiplication gate
//	          → OffDec (holds tsk epoch 0: decrypts ε/δ, reshares tsk)
//	          → OffRe (re-encrypts λ/Γ packed shares and input-wire λ's to
//	            KFFs and the early clients' output-wire λ's to their setup
//	            keys, reshares tsk to OnC1)
//	online:   OnC1, formed offline (re-encrypts KFF secret keys to the
//	          layer roles' keys once those are posted; reshares tsk to
//	          OnOut, if formed)
//	          → clients publish μ for their input wires
//	          → one committee per multiplication layer publishes μ-shares
//	          → OnOut, formed only when some client's output λ's may not
//	            reach it before the inputs are posted (circuit.EarlyOutputs),
//	            re-encrypts those to their clients
//	          → each client unmasks its outputs v = μ + λ
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
	// guaranteed output delivery: layer roles post bare shares without
	// proofs and cheaters are *decoded out* by Berlekamp–Welch error
	// correction instead of filtered by NIZK verification. This saves the
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
