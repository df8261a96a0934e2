package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yosompc/internal/field"
	"yosompc/internal/telemetry"
)

func TestMain(m *testing.M) {
	if err := loadSpec("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		in                    []float64
		median, min, max      float64
		q1, q3, spreadOfValue float64
	}{
		{in: []float64{3, 1, 2}, median: 2, min: 1, max: 3, q1: 1.5, q3: 2.5, spreadOfValue: 0.5},
		{in: []float64{4, 1, 3, 2}, median: 2.5, min: 1, max: 4, q1: 1.75, q3: 3.25, spreadOfValue: 0.6},
		{in: []float64{7}, median: 7, min: 7, max: 7, q1: 7, q3: 7},
	} {
		s := summarize("s", tc.in)
		if s.Value != tc.median || s.Min != tc.min || s.Max != tc.max || s.Q1 != tc.q1 || s.Q3 != tc.q3 || s.N != len(tc.in) {
			t.Errorf("summarize(%v) = %+v", tc.in, s)
		}
		if got := s.spread(); got != tc.spreadOfValue {
			t.Errorf("summarize(%v).spread() = %v, want %v", tc.in, got, tc.spreadOfValue)
		}
	}
	if s := summarize("s", nil); s.N != 0 || s.Value != 0 || s.spread() != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(v float64) summary {
		return summary{Value: v, Min: v * 0.99, Q1: v * 0.995, Q3: v * 1.005, Max: v * 1.01, N: 8}
	}
	wide := func(v float64) summary {
		return summary{Value: v, Min: v * 0.7, Q1: v * 0.85, Q3: v * 1.15, Max: v * 1.3, N: 8}
	}
	for _, tc := range []struct {
		name     string
		def      metricDef
		old, new summary
		want     verdict
	}{
		{"within the bound", lower, tight(1), tight(1.05), verdictOK},
		{"better", lower, tight(1), tight(0.8), verdictOK},
		{"worse than the bound", lower, tight(1), tight(1.2), verdictRegressed},
		{"old side too noisy to tell", lower, wide(1), tight(1.2), verdictUnresolved},
		{"new side too noisy to tell", lower, tight(1), wide(1.2), verdictUnresolved},
		{"noisy but every sample better", lower, wide(1), wide(0.4), verdictOK},
		{"higher is better, dropped", higher, tight(100), tight(80), verdictRegressed},
		{"higher is better, rose", higher, tight(100), tight(120), verdictOK},
	} {
		if _, got := judge(tc.def, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runS float64, failed int) string {
		e2e := map[string]summary{}
		for _, d := range spec.EndToEnd {
			e2e[d.Name] = summary{Value: 1, Unit: d.Unit, Min: 1, Q1: 1, Q3: 1, Max: 1, N: 5}
		}
		e2e["run_s"] = summary{Value: runS, Unit: "s", Min: runS, Q1: runS, Q3: runS, Max: runS, N: 5}
		path := filepath.Join(dir, name)
		file := &resultFile{Workloads: []workloadResult{{workload: workloads[0], Attempted: 5, Failed: failed, EndToEnd: e2e}}}
		if err := writeResultFile(path, file); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1, 0)
	for _, tc := range []struct {
		name string
		path string
		code int
		says string
	}{
		{"same", write("same.json", 1, 0), 0, "ok"},
		{"slower", write("slower.json", 1.5, 0), 1, "regressed"},
		{"more failures", write("failing.json", 1, 2), 1, "larger share of iterations failed"},
	} {
		var out bytes.Buffer
		if code, err := compareFiles(&out, base, tc.path); err != nil || code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.says) {
			t.Errorf("%s: output does not say %q:\n%s", tc.name, tc.says, out.String())
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	span := func(id, parent uint64, start, dur int64) telemetry.SpanRecord {
		return telemetry.SpanRecord{ID: id, Parent: parent, Name: fmt.Sprint("s", id), StartUS: start, DurUS: dur}
	}
	tree := newSpanTree([]telemetry.SpanRecord{
		span(1, 0, 0, 100),
		span(2, 1, 10, 30), // [10,40)
		span(3, 1, 30, 30), // [30,60) overlaps span 2
		span(4, 1, 35, 10), // [35,45) inside both
		span(5, 1, 80, 40), // [80,120) runs past the parent
		span(6, 2, 10, 30), // a grandchild covers nothing of span 1 itself
	})
	// Children cover [10,60) and [80,100): 70 of 100.
	if got := tree.selfUS(tree.spans[0]); got != 30 {
		t.Errorf("self time %d µs, want 30", got)
	}
	if got := tree.selfUS(tree.spans[1]); got != 0 {
		t.Errorf("self time of a fully covered span %d µs, want 0", got)
	}
	if got := tree.selfUS(tree.spans[3]); got != 10 {
		t.Errorf("self time of a leaf %d µs, want its duration 10", got)
	}
}

// tiny is a workload small enough for a unit test that still goes through
// every step of the protocol and, mirrored, through boardd and a monitor.
var tiny = workload{Name: "tiny", Backend: "sim", ModulusBits: 2048, N: 5, T: 1, K: 2, Width: 2, Depth: 1, Boardd: true}

func TestMeasureProcessEmitsEveryEndToEndMetric(t *testing.T) {
	res, err := runChild("measure", tiny, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 3 || res.Failed != 0 {
		t.Fatalf("attempted %d, failed %d (%v), want 3 and 0", res.Attempted, res.Failed, res.Failures)
	}
	// The parent adds the one metric that takes several processes.
	res.Metrics["setup_s"] = single("s", res.SetupS)
	if err := checkNames(spec.EndToEnd, res.Metrics); err != nil {
		t.Error(err)
	}
	for name, s := range res.Metrics {
		if s.Value <= 0 {
			t.Errorf("%s = %v, want a positive reading", name, s.Value)
		}
	}
}

func TestTraceProcessEmitsEveryPerLayerMetric(t *testing.T) {
	res, err := runChild("trace", tiny, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 4 || res.Failed != 0 {
		t.Fatalf("attempted %d, failed %d (%v), want 4 and 0", res.Attempted, res.Failed, res.Failures)
	}
	if err := checkNames(spec.PerLayer, res.Metrics); err != nil {
		t.Error(err)
	}
	if posts, entries := res.Metrics["transport.board_posts"], res.Metrics["monitor.entries"]; posts.Value == 0 || posts != entries {
		t.Errorf("board posts %+v, monitor entries %+v: want equal and non-zero", posts, entries)
	}
}

func TestStepSpansAndSelfTimeAccountForThePhases(t *testing.T) {
	b, err := newBench(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	it := b.iterate(true)
	if it.failure != "" {
		t.Fatal(it.failure)
	}
	off, err := accountedUS(newSpanTree(it.spans))
	if err != nil {
		t.Fatal(err)
	}
	if off > int64(len(it.spans)) {
		t.Errorf("step spans plus self time miss the phase spans by %d µs over %d spans", off, len(it.spans))
	}
}

func TestWrongOutputIsAFailedOperation(t *testing.T) {
	b, err := newBench(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if it := b.iterate(false); it.failure != "" {
		t.Fatalf("honest iteration failed: %s", it.failure)
	}
	for client := range b.want {
		b.want[client][0] = b.want[client][0].Add(field.New(1))
		break
	}
	it := b.iterate(false)
	if !strings.Contains(it.failure, "circuit.Eval") {
		t.Fatalf("iteration with a wrong expected output reported %q", it.failure)
	}
	var res childResult
	res.count(it)
	if res.Attempted != 1 || res.Failed != 1 {
		t.Errorf("counted attempted %d failed %d, want 1 and 1", res.Attempted, res.Failed)
	}
	if s := b.endToEnd([]iteration{it})["run_s"]; s.N != 0 {
		t.Errorf("a failed iteration contributed %d timing samples", s.N)
	}
}
