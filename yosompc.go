// Package yosompc is a reproduction of "Towards Scalable YOSO MPC via
// Packed Secret-Sharing" (Escudero, Masserova, Polychroniadou, PODC 2025):
// a YOSO (You Only Speak Once) secure multi-party computation protocol in
// the offline/online paradigm whose online communication is O(1) per gate —
// independent of the committee size n — for corruption thresholds
// t < n(1/2 − ε), achieved with packed Shamir secret sharing (packing
// factor k ≈ n·ε) over a CDN-style linearly homomorphic threshold
// encryption substrate with keys-for-future.
//
// The package is a facade over the implementation packages:
//
//   - Circuits are built with NewCircuit (or the generators InnerProduct,
//     PolyEval, MatVecMul, Statistics, WideMul).
//   - Config selects committee parameters and a backend: Real (threshold
//     Paillier + ECIES) or Sim (ideal functionalities with byte-accurate
//     size models, for large-committee communication sweeps).
//   - Run executes the protocol and returns outputs plus a communication
//     report; RunBaseline executes the CDN-style comparison protocol of
//     Gentry et al. (CRYPTO 2021).
//   - AnalyzeSortition / Table1 reproduce the paper's Section 6 committee
//     analysis (Table 1).
//
// A minimal end-to-end computation:
//
//	circ, _ := yosompc.InnerProduct(4)
//	cfg := yosompc.Config{N: 8, T: 2, K: 2, Backend: yosompc.Sim}
//	res, _ := yosompc.Run(cfg, circ, map[int][]yosompc.Value{
//	    0: yosompc.Values(1, 2, 3, 4),
//	    1: yosompc.Values(5, 6, 7, 8),
//	})
//	fmt.Println(res.Outputs[0][0]) // 70
package yosompc

import (
	"yosompc/internal/baseline"
	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/core"
	"yosompc/internal/field"
	"yosompc/internal/monitor"
	"yosompc/internal/paillier"
	"yosompc/internal/pke"
	"yosompc/internal/sortition"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// Value is one MPC field element (F_p with p = 2^61 − 1).
type Value = field.Element

// NewValue reduces an integer into the field.
func NewValue(v uint64) Value { return field.New(v) }

// Values builds a slice of field elements.
func Values(vs ...uint64) []Value {
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = field.New(v)
	}
	return out
}

// Circuit is an arithmetic circuit over the MPC field.
type Circuit = circuit.Circuit

// Builder assembles circuits gate by gate.
type Builder = circuit.Builder

// Wire is a handle to a circuit wire, produced and consumed by Builder
// methods.
type Wire = circuit.WireID

// NewCircuit returns an empty circuit builder.
func NewCircuit() *Builder { return circuit.NewBuilder() }

// Standard circuit generators (see internal/circuit for the layouts).
var (
	InnerProduct  = circuit.InnerProduct
	PolyEval      = circuit.PolyEval
	MatVecMul     = circuit.MatVecMul
	Statistics    = circuit.Statistics
	WideMul       = circuit.WideMul
	RandomCircuit = circuit.Random

	// Boolean gadgets from Fermat's little theorem (each equality test
	// costs ~120 multiplications at depth ~61).
	NonZeroIndicator    = circuit.NonZeroIndicator
	EqualsIndicator     = circuit.EqualsIndicator
	NotEqualsIndicator  = circuit.NotEqualsIndicator
	MembershipIndicator = circuit.MembershipIndicator
)

// ParseCircuit reads the one-gate-per-line text format (see
// internal/circuit's Format documentation), FormatCircuit renders it, and
// OptimizeCircuit applies dead-gate elimination, common-subexpression
// merging and constant folding.
var (
	ParseCircuit    = circuit.Parse
	FormatCircuit   = circuit.Format
	OptimizeCircuit = circuit.Optimize
)

// Backend selects the cryptographic backends.
type Backend int

// Backends.
const (
	// Sim uses ideal-functionality crypto with a byte-accurate size model
	// (modelled 2048-bit threshold Paillier). Use it for committee sizes
	// beyond a few dozen and for communication sweeps.
	Sim Backend = iota
	// Real uses threshold Paillier (Damgård–Jurik style, fixed 512-bit
	// test modulus) and ECIES-X25519 role encryption. Use it to exercise
	// the real cryptographic paths.
	Real
)

// Config selects protocol parameters.
type Config struct {
	// N is the committee size, T the per-committee corruption bound, and
	// K the packing factor; the protocol needs T + 2(K−1) + 1 ≤ N.
	N, T, K int
	// Backend selects Sim (default) or Real crypto.
	Backend Backend
	// Malicious and FailStops corrupt/crash that many roles per
	// committee (0 = all honest); Leaky roles follow the protocol but
	// count toward the adversary's view (honest-but-curious).
	Malicious, FailStops, Leaky int
	// Seed fixes the corruption pattern for reproducibility.
	Seed int64
	// Robust enables information-theoretic guaranteed output delivery on
	// the μ-opening path: no per-layer proofs, cheating shares decoded
	// out by Berlekamp–Welch. Requires 3T + 2(K−1) + 1 ≤ N.
	Robust bool
	// MirrorAddr, when set, live-mirrors every bulletin-board entry — the
	// real payload bytes and the trace context, not just sizes — to a
	// boardd server at this address, so remote observers can audit the
	// run (`boardd -watch`, `yosowatch`).
	MirrorAddr string
	// Workers bounds the worker-pool parallelism of the execution engine
	// (committee-member fan-out and the driver's homomorphic-evaluation
	// loops). 0 means one worker per CPU; 1 forces the serial path. The
	// communication report and audit totals are identical for every value
	// — only wall clock changes.
	Workers int
	// Trace, when non-nil, records hierarchical protocol → phase →
	// committee → role spans for the run (export with WriteTraceFile or
	// Tracer.WriteChromeTrace). nil disables tracing at zero cost.
	Trace *Tracer
	// Metrics, when non-nil, receives worker-pool counters and histograms
	// from the execution engine. nil disables collection at zero cost.
	Metrics *MetricsRegistry
	// Monitor, when non-nil, observes the run's bulletin board and derives
	// protocol progress from it: per-phase completion, expected-vs-posted
	// speakers per committee, stragglers, and the fail-stop margin (§5.4).
	// nil disables monitoring at zero cost. When Metrics is also set the
	// monitor's counters and gauges are registered on it.
	Monitor *Monitor
	// Proc names this OS process for cross-process correlation: board
	// postings (and their mirror, when MirrorAddr is set) carry it in
	// their trace context, and trace exports embed it so MergeTraces can
	// align this process's spans onto the shared board timeline. Empty is
	// fine for single-process runs; more than 255 bytes is rejected (the
	// wire format's limit).
	Proc string
}

// Tracer records hierarchical spans of a protocol run; see
// internal/telemetry and docs/OBSERVABILITY.md. A nil *Tracer is a valid
// disabled tracer.
type Tracer = telemetry.Tracer

// MetricsRegistry collects counters, gauges and histograms; a nil
// *MetricsRegistry is a valid disabled registry.
type MetricsRegistry = telemetry.Registry

// NewTracer returns an enabled span tracer for Config.Trace.
func NewTracer() *Tracer { return telemetry.NewTracer() }

// NewMetricsRegistry returns an enabled metrics registry for
// Config.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// Monitor derives protocol progress from bulletin-board contents alone;
// see internal/monitor and docs/OBSERVABILITY.md. A nil *Monitor is a
// valid disabled monitor.
type Monitor = monitor.Monitor

// ProgressSnapshot is the monitor's point-in-time progress document — the
// schema served by the /progress endpoint.
type ProgressSnapshot = monitor.Snapshot

// ProcessTrace is one process's parsed Chrome trace plus its process
// metadata, as read by ReadProcessTrace and consumed by MergeTraces.
type ProcessTrace = monitor.ProcessTrace

// NewMonitor returns an enabled progress monitor for Config.Monitor.
func NewMonitor() *Monitor { return monitor.New() }

// MergeTraces aligns per-process Chrome traces onto the shared board
// timeline; ReadProcessTrace parses one process's exported trace file.
var (
	MergeTraces      = monitor.MergeTraces
	ReadProcessTrace = monitor.ReadTraceFile
)

// WriteTraceFile writes a recorded trace to path: Chrome trace_event JSON
// by default (load in chrome://tracing or https://ui.perfetto.dev), span
// JSONL when path ends in .jsonl.
func WriteTraceFile(path string, t *Tracer) error { return telemetry.WriteTraceFile(path, t) }

// WriteMetricsFile writes a deterministic JSON snapshot of the registry.
func WriteMetricsFile(path string, r *MetricsRegistry) error {
	return telemetry.WriteMetricsFile(path, r)
}

// Report re-exports the communication report type.
type Report = comm.Report

// Result is a protocol run's outcome.
type Result struct {
	// Outputs maps each client to its outputs in gate order.
	Outputs map[int][]Value
	// Report is the communication breakdown by phase and category.
	Report Report
	// Excluded lists roles caught cheating or crashed.
	Excluded []string
	// Rounds is the number of sequential broadcast rounds the run used.
	Rounds int
}

// backends selects what a Config names for either protocol: the adversary
// and the threshold-encryption / role-encryption pair.
func (c Config) backends() (*yoso.Adversary, core.TE, pke.Scheme, error) {
	var adv *yoso.Adversary
	if c.Malicious > 0 || c.FailStops > 0 || c.Leaky > 0 {
		adv = &yoso.Adversary{Malicious: c.Malicious, FailStops: c.FailStops, Leaky: c.Leaky, Seed: c.Seed}
	}
	if c.Backend != Real {
		return adv, tte.NewSim(2048), pke.NewSim(), nil
	}
	te, err := tte.NewThreshold(paillier.FixedTestKey(0))
	if err != nil {
		return nil, nil, nil, err
	}
	return adv, te, pke.NewECIES(), nil
}

// newProtocol builds the core protocol a Config describes and attaches
// everything that observes its board — the progress monitor and, when
// MirrorAddr is set, the live mirror — in one place, so Run and the
// Prepare/Execute split cannot drift apart. The returned function
// releases the mirror's connection (a no-op without one); the caller
// invokes it once the board has taken its last posting.
func newProtocol(cfg Config, circ *Circuit) (*core.Protocol, func(), error) {
	adv, te, enc, err := cfg.backends()
	if err != nil {
		return nil, nil, err
	}
	proto, err := core.New(core.Params{
		N: cfg.N, T: cfg.T, K: cfg.K, TE: te, PKE: enc, Adversary: adv, Robust: cfg.Robust,
		Workers: cfg.Workers, Trace: cfg.Trace, Metrics: cfg.Metrics, Proc: cfg.Proc,
	}, circ, nil)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Monitor != nil {
		cfg.Monitor.Instrument(cfg.Metrics)
		cfg.Monitor.AttachBoard(proto.Board())
	}
	if cfg.MirrorAddr == "" {
		return proto, func() {}, nil
	}
	mirror, err := transport.AttachMirror(proto.Board(), cfg.MirrorAddr)
	if err != nil {
		return nil, nil, err
	}
	mirror.Instrument(cfg.Metrics)
	return proto, func() { _ = mirror.Close() }, nil
}

// Run executes the paper's packed YOSO MPC protocol on the circuit with
// the given per-client inputs.
func Run(cfg Config, circ *Circuit, inputs map[int][]Value) (*Result, error) {
	proto, closeMirror, err := newProtocol(cfg, circ)
	if err != nil {
		return nil, err
	}
	defer closeMirror()
	res, err := proto.Run(inputs)
	if err != nil {
		return nil, err
	}
	return &Result{Outputs: res.Outputs, Report: res.Report, Excluded: res.Excluded, Rounds: res.Rounds}, nil
}

// Prepared carries the outcome of the preprocessing phases, ready for one
// online execution.
type Prepared struct {
	inner       *core.Prepared
	closeMirror func()
}

// Prepare runs the setup and offline phases ahead of time; the returned
// value supports exactly one Execute once inputs are known. This is the
// deployment-realistic split the offline/online paradigm is about. A
// configured monitor and mirror observe both halves; the mirror's
// connection stays open until Execute returns.
func Prepare(cfg Config, circ *Circuit) (*Prepared, error) {
	proto, closeMirror, err := newProtocol(cfg, circ)
	if err != nil {
		return nil, err
	}
	inner, err := proto.Prepare()
	if err != nil {
		closeMirror()
		return nil, err
	}
	return &Prepared{inner: inner, closeMirror: closeMirror}, nil
}

// OfflineReport returns the bytes spent by setup + offline so far.
func (p *Prepared) OfflineReport() Report { return p.inner.OfflineReport() }

// Execute runs the online phase; the preprocessing is single-use.
func (p *Prepared) Execute(inputs map[int][]Value) (*Result, error) {
	defer p.closeMirror()
	res, err := p.inner.Execute(inputs)
	if err != nil {
		return nil, err
	}
	return &Result{Outputs: res.Outputs, Report: res.Report, Excluded: res.Excluded, Rounds: res.Rounds}, nil
}

// RunBaseline executes the CDN-style baseline (Gentry et al., CRYPTO 2021)
// with committee size N and threshold T; K is ignored.
func RunBaseline(cfg Config, circ *Circuit, inputs map[int][]Value) (*Result, error) {
	adv, te, enc, err := cfg.backends()
	if err != nil {
		return nil, err
	}
	proto, err := baseline.New(baseline.Params{N: cfg.N, T: cfg.T, TE: te, PKE: enc, Adversary: adv}, circ, nil)
	if err != nil {
		return nil, err
	}
	res, err := proto.Run(inputs)
	if err != nil {
		return nil, err
	}
	return &Result{Outputs: res.Outputs, Report: res.Report, Excluded: res.Excluded, Rounds: res.Rounds}, nil
}

// SortitionResult re-exports the Section 6 analysis row.
type SortitionResult = sortition.Result

// AnalyzeSortition computes committee parameters (t, c, c′, ε, k) for a
// sortition parameter C and global corruption ratio f (paper Section 6).
func AnalyzeSortition(c int, f float64) (SortitionResult, error) {
	return sortition.Analyze(c, f)
}

// Table1 regenerates the paper's Table 1 as formatted text.
func Table1() string {
	return sortition.FormatTable(sortition.Table1())
}

// ConfigFromSortition derives a protocol Config from the sortition
// analysis, optionally halving the packing factor for fail-stop tolerance
// (paper §5.4). The returned config uses the Sim backend, as sortition
// committee sizes are large.
func ConfigFromSortition(r SortitionResult, failStopTolerant bool) Config {
	n, t, k, _ := r.CommitteeFor(failStopTolerant)
	return Config{N: n, T: t, K: k, Backend: Sim}
}
