// Package bench is the experiment registry: Experiments lists every
// reproduction of the paper's quantitative content — Table 1 and the
// derived communication claims (EXPERIMENTS.md) — and each entry writes
// its table. All of them are deterministic byte tables (pinned by
// testdata/experiments.golden); wall clock is benchmark/'s question. Small
// and medium committees are *measured* by executing the instrumented
// protocols; Table-1-scale committees (up to ~41k roles) use the costmodel
// formulas, which the test suite validates byte-for-byte against measured
// runs.
package bench

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"yosompc/internal/baseline"
	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/core"
	"yosompc/internal/costmodel"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/sortition"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// ModelBits is the modelled Paillier modulus for communication accounting.
const ModelBits = 2048

// The parameters EXPERIMENTS.md quotes: the gap of the measured sweeps
// (k = ⌊n·eps⌋, t = ⌊n(1/2−eps)⌋−1) and E2's width multiplier.
const (
	eps       = 0.25
	widthMult = 16
)

// Experiment is one entry of the registry.
type Experiment struct {
	// ID is the experiment's id in DESIGN.md §4 and EXPERIMENTS.md.
	ID string
	// Name is what `benchcomm -experiment` takes.
	Name string
	// Title follows the ID in the table's heading.
	Title string
	// Run writes the table body (and, for E3 and the ablations, the
	// companion table with its own heading).
	Run func(io.Writer) error
}

// Experiments is the one list of the paper's reproductions, in output order.
var Experiments = []Experiment{
	{"T1", "table1", "Table 1 (sortition parameters with gap)", func(w io.Writer) error {
		_, err := io.WriteString(w, sortition.FormatTable(sortition.Table1()))
		return err
	}},
	{"E1", "online", "online bytes/gate vs committee size (measured)", func(w io.Writer) error {
		pts, err := OnlineVsN([]int{8, 16, 32, 64}, 256, 1, eps)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, FormatOnlineVsN(pts))
		return err
	}},
	{"E2", "improvement", "online improvement factors at Table-1 parameters", func(w io.Writer) error {
		rows, err := ImprovementFactors(widthMult)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, FormatImprovement(rows))
		return err
	}},
	{"E3a", "offline", "offline bytes vs circuit size (n=16)", func(w io.Writer) error {
		byGates, err := OfflineVsGates(16, 4, 4, []int{8, 16, 32, 64})
		if err != nil {
			return err
		}
		byN, err := OfflineVsN([]int{8, 16, 32, 64}, 16, eps)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s=== E3b: offline bytes vs committee size (16-mul circuit) ===\n%s",
			FormatOfflineScaling(byGates), FormatOfflineScaling(byN))
		return err
	}},
	{"E4", "failstop", "fail-stop tolerance (§5.4)", func(w io.Writer) error {
		res, err := FailStop(24, eps, 16)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "n=%d t=%d: packing %d → %d tolerates %d crashed roles per committee\n"+
			"completed with crashes: %v; μ-opening overhead %.2f×\n",
			res.N, res.T, res.KFull, res.KHalf, res.Dropped, res.Completed, res.Overhead)
		return err
	}},
	{"E8", "montecarlo", "Monte Carlo sortition validation (C=20000, f=0.20)", func(w io.Writer) error {
		res, err := sortition.Analyze(20000, 0.20)
		if err != nil {
			return err
		}
		st := res.Simulate(10000, 42)
		if st.ViolationsT != 0 || st.ViolationsGap != 0 || st.ViolationsRecon != 0 {
			return fmt.Errorf("bench: sortition guarantee violated: %s", st)
		}
		_, err = fmt.Fprintln(w, st)
		return err
	}},
	{"E9", "robust", "IT-GOD (robust) vs proof-filtered mode", func(w io.Writer) error {
		row, err := RobustComparison(14, 3, 2, 16)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "n=%d t=%d k=%d: online %d B (proofs) vs %d B (robust); per-run proof saving %d B\n"+
			"packing budget: k ≤ %d (proofs) vs k ≤ %d (robust decoding)\n",
			row.N, row.T, row.K, row.ProofOnline, row.RobustOnline, row.ProofBytesSaved,
			row.MaxKProof, row.MaxKRobust)
		return err
	}},
	{"E10", "amortization", "online amortization curve (n=16, k=4)", func(w io.Writer) error {
		pts, err := AmortizationCurve(16, 3, 4, []int{8, 16, 32, 64, 128, 256})
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, FormatAmortization(pts))
		return err
	}},
	{"Limitation", "totalcost", "total (setup+offline+online) cost vs baseline", func(w io.Writer) error {
		pts, err := TotalCost([]int{8, 16, 32}, 16, eps)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, FormatTotalCost(pts))
		return err
	}},
	{"Ablation", "ablation", "packing on/off", func(w io.Writer) error {
		packing, err := PackingAblation(16, 3, 4, 16)
		if err != nil {
			return err
		}
		var b strings.Builder
		for _, r := range packing {
			fmt.Fprintf(&b, "%-16s μ-online %6d B  (%.1f B/gate, %.2f× packed)\n",
				r.Name, r.OnlineBytes, r.OnlinePerGate, r.RelativeToFull)
		}
		b.WriteString("\n=== Ablation: keys-for-future on/off (§3.2 naive) ===\n")
		// KFF moves the re-encryption of every layer member's shares offline.
		// Slot-packed, that is ⌈3·batches·width/capacity⌉ openings per member:
		// one at 4 batches per layer — then the naive mode costs the same
		// online — and 15 at 64.
		for _, width := range []int{16, 256} {
			kff, err := KFFAblation(16, 3, 4, width)
			if err != nil {
				return err
			}
			for _, r := range kff {
				fmt.Fprintf(&b, "width %-4d %-16s online %8d B  (%.1f B/gate, %.2f× of KFF)\n",
					width, r.Name, r.OnlineBytes, r.OnlinePerGate, r.RelativeToFull)
			}
		}
		_, err = io.WriteString(w, b.String())
		return err
	}},
}

// Select resolves a `benchcomm -experiment` value: "all" is the whole
// registry, a registered Name is that one entry, anything else an error
// naming the valid values.
func Select(name string) ([]Experiment, error) {
	if name == "all" {
		return Experiments, nil
	}
	names := []string{"all"}
	for i, e := range Experiments {
		if e.Name == name {
			return Experiments[i : i+1], nil
		}
		names = append(names, e.Name)
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (valid: %s)", name, strings.Join(names, ", "))
}

// Write runs the experiments in order, each as a heading, its table and a
// blank line.
func Write(w io.Writer, exps []Experiment) error {
	for _, e := range exps {
		if _, err := fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title); err != nil {
			return err
		}
		if err := e.Run(w); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// defaultInputs builds deterministic inputs for a circuit.
func defaultInputs(c *circuit.Circuit) map[int][]field.Element {
	in := map[int][]field.Element{}
	for _, client := range c.Clients() {
		vals := make([]field.Element, c.InputCount(client))
		for i := range vals {
			vals[i] = field.New(uint64(client*101 + i + 1))
		}
		in[client] = vals
	}
	return in
}

// errWrongOutputs marks a run that completed with outputs other than the
// circuit's: a table must never be built from one.
var errWrongOutputs = errors.New("bench: run outputs differ from circuit.Eval")

// checkOutputs compares a run's outputs on defaultInputs with the plain
// evaluation of the circuit.
func checkOutputs(circ *circuit.Circuit, got map[int][]field.Element) error {
	want, err := circ.Eval(defaultInputs(circ))
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return errWrongOutputs
	}
	for client, w := range want {
		if !field.EqualVec(got[client], w) {
			return errWrongOutputs
		}
	}
	return nil
}

// gapParams is the measured sweeps' committee geometry at gap eps:
// t = ⌊n(1/2−eps)⌋−1 corruptions and packing k = ⌊n·eps⌋.
func gapParams(n int, eps float64) (t, k int) {
	return max(int(float64(n)*(0.5-eps))-1, 0), max(int(float64(n)*eps), 1)
}

// runCore executes the packed protocol with ideal backends on
// defaultInputs and returns its communication report, after checking the
// outputs. The caller sets the committee geometry and mode in p.
func runCore(p core.Params, circ *circuit.Circuit) (comm.Report, error) {
	p.TE, p.PKE = tte.NewSim(ModelBits), pke.NewSim()
	proto, err := core.New(p, circ, nil)
	if err != nil {
		return comm.Report{}, err
	}
	res, err := proto.Run(defaultInputs(circ))
	if err != nil {
		return comm.Report{}, err
	}
	return res.Report, checkOutputs(circ, res.Outputs)
}

// runBaseline executes the CDN baseline the same way.
func runBaseline(n, t int, circ *circuit.Circuit) (comm.Report, error) {
	params := baseline.Params{N: n, T: t, TE: tte.NewSim(ModelBits), PKE: pke.NewSim()}
	proto, err := baseline.New(params, circ, nil)
	if err != nil {
		return comm.Report{}, err
	}
	res, err := proto.Run(defaultInputs(circ))
	if err != nil {
		return comm.Report{}, err
	}
	return res.Report, checkOutputs(circ, res.Outputs)
}

// --- E1: online communication vs committee size ------------------------

// OnlineVsNPoint is one measured point of experiment E1.
type OnlineVsNPoint struct {
	N, T, K int
	// CoreMuPerGate is the packed protocol's per-gate μ-opening bytes.
	CoreMuPerGate float64
	// CoreOnlinePerGate is the packed protocol's total online bytes/gate.
	CoreOnlinePerGate float64
	// BaselineOnlinePerGate is the baseline's total online bytes/gate.
	BaselineOnlinePerGate float64
}

// OnlineVsN measures experiment E1: per-gate online communication of the
// packed protocol (flat in n, since k ∝ n) against the CDN baseline
// (linear in n). Committee sizes are measured directly with the ideal
// backends; eps sets k = ⌊n·eps⌋ and t = ⌊n(1/2−eps)⌋−1.
func OnlineVsN(ns []int, width, depth int, eps float64) ([]OnlineVsNPoint, error) {
	var out []OnlineVsNPoint
	for _, n := range ns {
		t, k := gapParams(n, eps)
		circ, err := circuit.WideMul(width, depth)
		if err != nil {
			return nil, err
		}
		gates := float64(circ.NumMul())
		coreRep, err := runCore(core.Params{N: n, T: t, K: k}, circ)
		if err != nil {
			return nil, fmt.Errorf("bench: core n=%d: %w", n, err)
		}
		baseRep, err := runBaseline(n, (n-1)/2, circ)
		if err != nil {
			return nil, fmt.Errorf("bench: baseline n=%d: %w", n, err)
		}
		out = append(out, OnlineVsNPoint{
			N: n, T: t, K: k,
			CoreMuPerGate:         float64(coreRep.ByCat[comm.PhaseOnline][comm.CatMu]) / gates,
			CoreOnlinePerGate:     float64(coreRep.Phase(comm.PhaseOnline)) / gates,
			BaselineOnlinePerGate: float64(baseRep.Phase(comm.PhaseOnline)) / gates,
		})
	}
	return out, nil
}

// FormatOnlineVsN renders E1 as a table.
func FormatOnlineVsN(pts []OnlineVsNPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-6s %-6s %-16s %-18s %-20s\n",
		"n", "t", "k", "ours μ B/gate", "ours online B/gate", "baseline online B/gate")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-6d %-6d %-6d %-16.1f %-18.1f %-20.1f\n",
			p.N, p.T, p.K, p.CoreMuPerGate, p.CoreOnlinePerGate, p.BaselineOnlinePerGate)
	}
	return b.String()
}

// --- E2: improvement factors at Table-1 parameters ---------------------

// ImprovementRow is one Table-1 row evaluated as experiment E2.
type ImprovementRow struct {
	C              int
	F              float64
	N, T, K        int
	NoGapN         int
	CoreOnline     int64
	BaselineOnline int64
	ByteFactor     float64
	ElementFactor  float64
	PaperFactor    int
}

// ImprovementFactors evaluates E2: for every feasible Table-1 row, the
// packed protocol at committee size c with packing k against the CDN
// baseline at the no-gap committee size c′ = 2t+1, on a one-layer workload
// of widthMult·n·k multiplication gates — the paper's amortization regime,
// in which each committee role processes Θ(widthMult·n) values so the
// O(n)-per-role KFF delivery amortizes. Costs come from the validated
// costmodel.
func ImprovementFactors(widthMult int) ([]ImprovementRow, error) {
	z := costmodel.SimSizes(ModelBits)
	var rows []ImprovementRow
	for _, row := range sortition.Table1() {
		if !row.Feasible {
			continue
		}
		n, t, k, _ := row.Result.CommitteeFor(false)
		width := widthMult * n * k
		// Two clients with 8 inputs each; the 4 outputs go to the first.
		shape := costmodel.FreshShape(n, t, k, []int{8, 8}, []int{4, 0}, []int{width})
		ours := costmodel.Core(n, t, k, shape, z)
		baseShape := shape
		baseShape.BatchesPerLayer = []int{width}
		nPrime := row.Result.NoGap
		base := costmodel.Baseline(nPrime, t, baseShape, z)
		// Element factor: baseline posts 2n′ partial-decryption elements
		// per gate; ours posts n/k μ-share elements per gate.
		elemFactor := float64(2*nPrime) / (float64(n) / float64(k))
		rows = append(rows, ImprovementRow{
			C: row.C, F: row.F, N: n, T: t, K: k, NoGapN: nPrime,
			CoreOnline:     ours.Online,
			BaselineOnline: base.Online,
			ByteFactor:     float64(base.Online) / float64(ours.Online),
			ElementFactor:  elemFactor,
			PaperFactor:    row.Result.K,
		})
	}
	return rows, nil
}

// FormatImprovement renders E2 as a table.
func FormatImprovement(rows []ImprovementRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %-5s %-7s %-7s %-7s %-12s %-14s %-12s %-12s %-10s\n",
		"C", "f", "c", "c'", "k", "ours online", "baseline onl", "byte-factor", "elem-factor", "paper-k")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %-5.2f %-7d %-7d %-7d %-12s %-14s %-12.0f %-12.0f %-10d\n",
			r.C, r.F, r.N, r.NoGapN, r.K,
			comm.HumanBytes(r.CoreOnline), comm.HumanBytes(r.BaselineOnline),
			r.ByteFactor, r.ElementFactor, r.PaperFactor)
	}
	return b.String()
}

// --- E3: offline scaling -------------------------------------------------

// OfflineScalingPoint is one point of experiment E3.
type OfflineScalingPoint struct {
	N       int
	Muls    int
	Offline int64
	PerGate float64
}

// offlinePoint is one E3 point: the run's offline bytes, total and per gate.
func offlinePoint(n int, circ *circuit.Circuit, rep comm.Report) OfflineScalingPoint {
	off := rep.Phase(comm.PhaseOffline)
	return OfflineScalingPoint{
		N: n, Muls: circ.NumMul(), Offline: off,
		PerGate: float64(off) / float64(circ.NumMul()),
	}
}

// OfflineVsGates measures offline bytes against circuit size at fixed n —
// the O(n·|C|) claim's |C| axis.
func OfflineVsGates(n, t, k int, widths []int) ([]OfflineScalingPoint, error) {
	var out []OfflineScalingPoint
	for _, w := range widths {
		circ, err := circuit.WideMul(w, 1)
		if err != nil {
			return nil, err
		}
		rep, err := runCore(core.Params{N: n, T: t, K: k}, circ)
		if err != nil {
			return nil, err
		}
		out = append(out, offlinePoint(n, circ, rep))
	}
	return out, nil
}

// OfflineVsN measures offline bytes against committee size at fixed
// circuit — the O(n·|C|) claim's n axis (k scales with n).
func OfflineVsN(ns []int, width int, eps float64) ([]OfflineScalingPoint, error) {
	circ, err := circuit.WideMul(width, 1)
	if err != nil {
		return nil, err
	}
	var out []OfflineScalingPoint
	for _, n := range ns {
		t, k := gapParams(n, eps)
		rep, err := runCore(core.Params{N: n, T: t, K: k}, circ)
		if err != nil {
			return nil, err
		}
		out = append(out, offlinePoint(n, circ, rep))
	}
	return out, nil
}

// FormatOfflineScaling renders E3 points.
func FormatOfflineScaling(pts []OfflineScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-8s %-14s %-14s\n", "n", "muls", "offline", "B/gate")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-6d %-8d %-14s %-14.1f\n", p.N, p.Muls, comm.HumanBytes(p.Offline), p.PerGate)
	}
	return b.String()
}

// --- E4: fail-stop tolerance ---------------------------------------------

// FailStopResult is experiment E4's outcome.
type FailStopResult struct {
	N, T         int
	KFull, KHalf int
	Dropped      int
	// Completed reports whether the half-packing run with dropped roles
	// ran to the end and delivered the circuit's outputs.
	Completed bool
	// OnlineFull / OnlineHalf are the per-run online μ-opening bytes of
	// the all-honest full-k and half-k runs.
	OnlineFull, OnlineHalf int64
	// Overhead is OnlineHalf / OnlineFull (≈ the paper's factor-2 cost).
	Overhead float64
}

// FailStop measures §5.4: with the packing factor halved (k′ ≈ nε/2), the
// protocol completes even when ⌊nε⌋ honest roles crash in every committee,
// at roughly twice the per-gate online μ cost.
func FailStop(n int, eps float64, width int) (*FailStopResult, error) {
	kFull := int(float64(n) * eps)
	if kFull < 2 {
		return nil, fmt.Errorf("bench: n·eps = %d too small to halve", kFull)
	}
	kHalf := kFull / 2
	t, _ := gapParams(n, eps)
	drop := kFull
	circ, err := circuit.WideMul(width, 1)
	if err != nil {
		return nil, err
	}
	full, err := runCore(core.Params{N: n, T: t, K: kFull}, circ)
	if err != nil {
		return nil, err
	}
	// The §5.4 price: the same computation with k′ = k/2, all honest —
	// "cutting by a factor of two the gains in communication".
	halfHonest, err := runCore(core.Params{N: n, T: t, K: kHalf}, circ)
	if err != nil {
		return nil, err
	}
	// The §5.4 benefit: with k′, the run survives ⌊nε⌋ crashed honest
	// roles in every committee.
	adv := yoso.NewAdversary(0, drop, 424242)
	_, dropErr := runCore(core.Params{N: n, T: t, K: kHalf, Adversary: adv}, circ)
	if errors.Is(dropErr, errWrongOutputs) {
		return nil, dropErr
	}
	res := &FailStopResult{
		N: n, T: t, KFull: kFull, KHalf: kHalf, Dropped: drop,
		Completed:  dropErr == nil,
		OnlineFull: full.ByCat[comm.PhaseOnline][comm.CatMu],
		OnlineHalf: halfHonest.ByCat[comm.PhaseOnline][comm.CatMu],
	}
	res.Overhead = float64(res.OnlineHalf) / float64(res.OnlineFull)
	return res, nil
}

// --- Ablations -----------------------------------------------------------

// AblationRow compares the packed protocol against itself with a design
// element disabled.
type AblationRow struct {
	Name           string
	OnlineBytes    int64
	OnlinePerGate  float64
	OfflineBytes   int64
	RelativeToFull float64
}

// PackingAblation quantifies the packed-sharing contribution: k as chosen
// (≈ nε) versus k = 1, which degenerates each batch to a single gate (the
// per-gate cost then scales like the unpacked CDN approach's share count).
func PackingAblation(n, t, k, width int) ([]AblationRow, error) {
	circ, err := circuit.WideMul(width, 1)
	if err != nil {
		return nil, err
	}
	// Compare the μ-opening stream — the per-gate online cost packing
	// targets; the KFF-delivery component is identical in both runs.
	mu := func(r comm.Report) int64 { return r.ByCat[comm.PhaseOnline][comm.CatMu] }
	return ablation(circ, mu, fmt.Sprintf("packed k=%d", k), core.Params{N: n, T: t, K: k},
		"unpacked k=1", core.Params{N: n, T: t, K: 1})
}

// ablation runs the protocol as designed (full) and with one design
// element disabled, and compares the online bytes that `online` picks.
func ablation(circ *circuit.Circuit, online func(comm.Report) int64,
	fullName string, full core.Params, offName string, off core.Params) ([]AblationRow, error) {
	var rows []AblationRow
	for _, v := range []struct {
		name string
		p    core.Params
	}{{fullName, full}, {offName, off}} {
		rep, err := runCore(v.p, circ)
		if err != nil {
			return nil, err
		}
		on := online(rep)
		rows = append(rows, AblationRow{
			Name: v.name, OnlineBytes: on,
			OnlinePerGate: float64(on) / float64(circ.NumMul()),
			OfflineBytes:  rep.Phase(comm.PhaseOffline),
		})
		rows[len(rows)-1].RelativeToFull = float64(on) / float64(rows[0].OnlineBytes)
	}
	return rows, nil
}

// --- Total-cost comparison (limitation figure) ---------------------------

// TotalCostPoint compares end-to-end (setup+offline+online) bytes.
type TotalCostPoint struct {
	N             int
	CoreTotal     int64
	BaselineTotal int64
	// Ratio is CoreTotal / BaselineTotal — above 1 where the offline
	// investment exceeds the baseline's entire cost.
	Ratio float64
}

// TotalCost measures the honest limitation the paper's conclusion notes
// ("our preprocessing unfortunately does not benefit from the packing
// parameter k"): summing all phases, the packed protocol pays more than
// the baseline — the win is moving Θ(n)-per-gate work out of the
// input-dependent online phase, not reducing total bytes.
func TotalCost(ns []int, width int, eps float64) ([]TotalCostPoint, error) {
	circ, err := circuit.WideMul(width, 1)
	if err != nil {
		return nil, err
	}
	var out []TotalCostPoint
	for _, n := range ns {
		t, k := gapParams(n, eps)
		coreRep, err := runCore(core.Params{N: n, T: t, K: k}, circ)
		if err != nil {
			return nil, err
		}
		baseRep, err := runBaseline(n, (n-1)/2, circ)
		if err != nil {
			return nil, err
		}
		p := TotalCostPoint{N: n, CoreTotal: coreRep.Total, BaselineTotal: baseRep.Total}
		p.Ratio = float64(p.CoreTotal) / float64(p.BaselineTotal)
		out = append(out, p)
	}
	return out, nil
}

// FormatTotalCost renders the comparison.
func FormatTotalCost(pts []TotalCostPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-14s %-16s %-8s\n", "n", "ours total", "baseline total", "ratio")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-6d %-14s %-16s %-8.2f\n",
			p.N, comm.HumanBytes(p.CoreTotal), comm.HumanBytes(p.BaselineTotal), p.Ratio)
	}
	return b.String()
}

// --- E9: robust (IT-GOD) vs proof-filtered mode --------------------------

// RobustRow compares the two GOD mechanisms at one committee size.
type RobustRow struct {
	N, T, K int
	// ProofOnline / RobustOnline are total online bytes.
	ProofOnline, RobustOnline int64
	// ProofBytesSaved is the per-run μ-layer proof saving.
	ProofBytesSaved int64
	// MaxKProof / MaxKRobust are the largest packing factors each mode
	// admits at (n, t): the robust mode's cost is packing budget.
	MaxKProof, MaxKRobust int
}

// RobustComparison measures E9 on a wide one-layer circuit.
func RobustComparison(n, t, k, width int) (*RobustRow, error) {
	circ, err := circuit.WideMul(width, 1)
	if err != nil {
		return nil, err
	}
	proofRep, err := runCore(core.Params{N: n, T: t, K: k}, circ)
	if err != nil {
		return nil, err
	}
	robustRep, err := runCore(core.Params{N: n, T: t, K: k, Robust: true}, circ)
	if err != nil {
		return nil, err
	}
	row := &RobustRow{
		N: n, T: t, K: k,
		ProofOnline:  proofRep.Phase(comm.PhaseOnline),
		RobustOnline: robustRep.Phase(comm.PhaseOnline),
		MaxKProof:    max((n-t-1)/2, 1),
		MaxKRobust:   max((n-3*t-1)/2, 1),
	}
	row.ProofBytesSaved = proofRep.ByCat[comm.PhaseOnline][comm.CatProof] -
		robustRep.ByCat[comm.PhaseOnline][comm.CatProof]
	return row, nil
}

// KFFAblation quantifies the keys-for-future contribution: the same
// computation with NoKFF (the paper's §3.2 naive approach) pays the packed
// share re-encryptions during the online phase.
func KFFAblation(n, t, k, width int) ([]AblationRow, error) {
	circ, err := circuit.WideMul(width, 1)
	if err != nil {
		return nil, err
	}
	online := func(r comm.Report) int64 { return r.Phase(comm.PhaseOnline) }
	return ablation(circ, online, "with KFF", core.Params{N: n, T: t, K: k},
		"naive (no KFF)", core.Params{N: n, T: t, K: k, NoKFF: true})
}

// --- Amortization curve ---------------------------------------------------

// AmortizationPoint is one point of the width sweep: online bytes per gate
// as the per-committee workload grows.
type AmortizationPoint struct {
	Width         int
	OnlinePerGate float64
	// MuPerGate is the flat μ-opening component (the asymptote's floor).
	MuPerGate float64
}

// AmortizationCurve measures how the fixed online costs (KFF delivery, tsk
// hand-off, output delivery) amortize as circuit width grows — the
// convergence to the paper's O(1)-per-gate asymptote. Fixed (n, t, k);
// inner products — one layer of products summed into a single output — so
// the per-output cost does not mask the floor.
func AmortizationCurve(n, t, k int, widths []int) ([]AmortizationPoint, error) {
	var out []AmortizationPoint
	for _, w := range widths {
		circ, err := circuit.InnerProduct(w)
		if err != nil {
			return nil, err
		}
		rep, err := runCore(core.Params{N: n, T: t, K: k}, circ)
		if err != nil {
			return nil, err
		}
		gates := float64(circ.NumMul())
		out = append(out, AmortizationPoint{
			Width:         w,
			OnlinePerGate: float64(rep.Phase(comm.PhaseOnline)) / gates,
			MuPerGate:     float64(rep.ByCat[comm.PhaseOnline][comm.CatMu]) / gates,
		})
	}
	return out, nil
}

// FormatAmortization renders the curve.
func FormatAmortization(pts []AmortizationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-20s %-16s\n", "width", "online B/gate", "μ-floor B/gate")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8d %-20.1f %-16.1f\n", p.Width, p.OnlinePerGate, p.MuPerGate)
	}
	return b.String()
}
