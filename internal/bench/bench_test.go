package bench

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/field"
)

// TestExperimentsGolden pins the whole of `go run ./cmd/benchcomm`: every
// table is a deterministic byte report, so EXPERIMENTS.md cannot move
// unnoticed. After an intended change, regenerate with
//
//	go run ./cmd/benchcomm > internal/bench/testdata/experiments.golden
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	want, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Write(&got, Experiments); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from testdata/experiments.golden:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, testdata/experiments.golden %d", len(gl), len(wl))
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Experiments) {
		t.Fatalf("Select(all) = %d experiments, %v", len(all), err)
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] || e.Name == "all" {
			t.Errorf("experiment name %q is not unique", e.Name)
		}
		seen[e.Name] = true
		got, err := Select(e.Name)
		if err != nil || len(got) != 1 || got[0].ID != e.ID {
			t.Errorf("Select(%q) = %v, %v", e.Name, got, err)
		}
	}
	_, err = Select("onlin")
	if err == nil {
		t.Fatal("Select accepted a typo")
	}
	for name := range seen {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not name %q: %v", name, err)
		}
	}
}

func TestCheckOutputs(t *testing.T) {
	circ, err := circuit.WideMul(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := circ.Eval(defaultInputs(circ))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOutputs(circ, out); err != nil {
		t.Errorf("circuit.Eval's own outputs rejected: %v", err)
	}
	for client := range out {
		out[client][0] = out[client][0].Add(field.One)
		break
	}
	if err := checkOutputs(circ, out); !errors.Is(err, errWrongOutputs) {
		t.Errorf("one wrong output value: err = %v", err)
	}
	if err := checkOutputs(circ, nil); !errors.Is(err, errWrongOutputs) {
		t.Errorf("no outputs at all: err = %v", err)
	}
}

func TestOnlineVsNShape(t *testing.T) {
	pts, err := OnlineVsN([]int{8, 16, 32}, 16, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Packed μ-stream per gate flat (k ∝ n); baseline grows ≥ 3×/4×-n.
	for i := 1; i < len(pts); i++ {
		if pts[i].CoreMuPerGate > 1.5*pts[0].CoreMuPerGate {
			t.Errorf("μ per gate grew: %+v", pts)
		}
		if pts[i].BaselineOnlinePerGate < 1.7*pts[i-1].BaselineOnlinePerGate {
			t.Errorf("baseline per gate did not grow ~linearly: %+v", pts)
		}
	}
	if s := FormatOnlineVsN(pts); !strings.Contains(s, "baseline") {
		t.Error("format output missing header")
	}
}

func TestImprovementFactorsShape(t *testing.T) {
	rows, err := ImprovementFactors(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 17 {
		t.Fatalf("rows = %d, want 17 feasible Table-1 rows", len(rows))
	}
	for _, r := range rows {
		// The byte factor must reach at least ~the paper's k (bytes favour
		// us further at most rows because baseline elements are
		// Paillier-sized while μ-shares are field-sized; per-role KFF
		// delivery eats part of that at finite widths).
		if r.ByteFactor < 0.8*float64(r.PaperFactor) {
			t.Errorf("C=%d f=%.2f: byte factor %.0f below paper k=%d",
				r.C, r.F, r.ByteFactor, r.PaperFactor)
		}
		// The element factor is 2k·(c'/c) = 2k(1−2ε) ∈ [0.5k, 2.2k]
		// across Table 1's ε range (the paper rounds this to "factor k").
		if r.ElementFactor < 0.5*float64(r.PaperFactor) || r.ElementFactor > 2.2*float64(r.PaperFactor)+8 {
			t.Errorf("C=%d f=%.2f: element factor %.0f vs paper k=%d",
				r.C, r.F, r.ElementFactor, r.PaperFactor)
		}
	}
	// Headline claims: ≥28× at (1000, 0.05); >1000× at (20000, 0.20).
	for _, r := range rows {
		if r.C == 1000 && r.F == 0.05 && r.ByteFactor < 28 {
			t.Errorf("C=1000 f=0.05 factor %.0f < 28", r.ByteFactor)
		}
		if r.C == 20000 && r.F == 0.20 && r.ByteFactor < 1000 {
			t.Errorf("C=20000 f=0.20 factor %.0f < 1000", r.ByteFactor)
		}
	}
	if s := FormatImprovement(rows); !strings.Contains(s, "paper-k") {
		t.Error("format output missing header")
	}
}

func TestOfflineVsGatesLinear(t *testing.T) {
	pts, err := OfflineVsGates(8, 2, 2, []int{8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	// Offline per gate should be roughly constant (O(n|C|) total).
	for i := 1; i < len(pts); i++ {
		ratio := pts[i].PerGate / pts[0].PerGate
		if ratio > 1.6 || ratio < 0.4 {
			t.Errorf("offline per gate not ~constant in |C|: %+v", pts)
		}
	}
	if s := FormatOfflineScaling(pts); !strings.Contains(s, "B/gate") {
		t.Error("format output missing header")
	}
}

func TestOfflineVsNLinear(t *testing.T) {
	pts, err := OfflineVsN([]int{8, 16, 32}, 16, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Offline per gate grows with n (O(n) per gate): ≥1.5× per doubling.
	for i := 1; i < len(pts); i++ {
		if pts[i].PerGate < 1.5*pts[i-1].PerGate {
			t.Errorf("offline per gate not growing with n: %+v", pts)
		}
	}
}

func TestFailStopExperiment(t *testing.T) {
	res, err := FailStop(16, 0.25, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Completed means checked: every run behind the result, the crashed
	// one included, delivered circuit.Eval's outputs (runCore).
	if !res.Completed {
		t.Fatal("half-packing run with nε dropped roles did not complete")
	}
	if res.KHalf != res.KFull/2 {
		t.Errorf("k-half = %d, want %d", res.KHalf, res.KFull/2)
	}
	if res.Dropped != 4 {
		t.Errorf("dropped = %d, want 4", res.Dropped)
	}
	// Halving k doubles per-gate μ cost (±batch rounding).
	if res.Overhead < 1.5 || res.Overhead > 3 {
		t.Errorf("overhead = %v, want ≈2", res.Overhead)
	}
}

func TestFailStopTooSmall(t *testing.T) {
	if _, err := FailStop(4, 0.25, 4); err == nil {
		t.Error("accepted n·eps too small to halve")
	}
}

func TestPackingAblation(t *testing.T) {
	rows, err := PackingAblation(12, 2, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Unpacked online μ cost must be ≈k× the packed cost (same circuit,
	// k=1 means one share per gate instead of per k gates).
	if rows[1].RelativeToFull < 3 {
		t.Errorf("unpacked not ~k× more expensive: %+v", rows)
	}
}

func TestTotalCost(t *testing.T) {
	pts, err := TotalCost([]int{8, 16}, 16, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.CoreTotal <= 0 || p.BaselineTotal <= 0 {
			t.Fatalf("non-positive totals: %+v", p)
		}
		// The packed protocol's total exceeds the baseline's — the win is
		// *where* the bytes are spent, not how many (paper's conclusion).
		if p.Ratio < 1 {
			t.Errorf("expected total-cost ratio ≥ 1, got %+v", p)
		}
	}
	if s := FormatTotalCost(pts); !strings.Contains(s, "ratio") {
		t.Error("format output missing header")
	}
}

func TestRobustComparison(t *testing.T) {
	row, err := RobustComparison(14, 3, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if row.ProofBytesSaved != 14*192 {
		t.Errorf("proof savings = %d, want %d", row.ProofBytesSaved, 14*192)
	}
	if row.RobustOnline >= row.ProofOnline {
		t.Errorf("robust online %d not below proof online %d", row.RobustOnline, row.ProofOnline)
	}
	// Packing budget shrinks: (n−3t−1)/2 < (n−t−1)/2.
	if row.MaxKRobust >= row.MaxKProof {
		t.Errorf("robust packing budget %d not below proof budget %d", row.MaxKRobust, row.MaxKProof)
	}
}

func TestKFFAblation(t *testing.T) {
	// 64 batches per layer: a layer member's 192 shares slot-pack into 15
	// openings (at 4 batches they fit one, and the two modes cost the same
	// online).
	rows, err := KFFAblation(16, 3, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	// The naive mode's online phase carries the re-encryption bytes KFF
	// moves offline — several times more expensive online.
	if rows[1].RelativeToFull < 1.5 {
		t.Errorf("naive online only %.2f× of KFF online: %+v", rows[1].RelativeToFull, rows)
	}
	if rows[1].OfflineBytes >= rows[0].OfflineBytes {
		t.Errorf("naive offline not lighter: %+v", rows)
	}
}

func TestAmortizationCurve(t *testing.T) {
	pts, err := AmortizationCurve(12, 2, 3, []int{6, 24, 96})
	if err != nil {
		t.Fatal(err)
	}
	// Per-gate online cost strictly decreases toward the μ floor as the
	// fixed costs amortize over more gates.
	for i := 1; i < len(pts); i++ {
		if pts[i].OnlinePerGate >= pts[i-1].OnlinePerGate {
			t.Errorf("no amortization: %+v", pts)
		}
	}
	// The μ floor is flat.
	for _, p := range pts {
		if p.MuPerGate != pts[0].MuPerGate {
			t.Errorf("μ floor not flat: %+v", pts)
		}
	}
}
