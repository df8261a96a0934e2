package core

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"reflect"
	"strings"
	"testing"
	"time"

	"yosompc/internal/circuit"
	"yosompc/internal/telemetry"
)

// TestTelemetryPhaseSpansCoverWallClock pins the tracing acceptance
// contract: a traced small-committee run produces a Chrome-loadable trace
// whose setup/offline/online phase spans sum to within 5% of the measured
// wall clock, with board bytes bridged onto the spans and worker-pool
// metrics populated.
func TestTelemetryPhaseSpansCoverWallClock(t *testing.T) {
	circ, err := circuit.WideMul(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := simParams(12, 2, 3, nil)
	tr := telemetry.NewTracer()
	reg := telemetry.NewRegistry()
	params.Trace = tr
	params.Metrics = reg
	proto, err := New(params, circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{
		0: {2, 3, 4, 5, 2, 3, 4, 5},
		1: {6, 7, 2, 3, 6, 7, 2, 3},
	})
	start := time.Now()
	res, err := proto.Run(in)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	var phaseSum time.Duration
	seen := map[string]bool{}
	var root *telemetry.SpanRecord
	for i, sp := range spans {
		if sp.Name == "protocol" {
			root = &spans[i]
		}
		if strings.HasPrefix(sp.Name, "phase:") {
			seen[sp.Name] = true
			phaseSum += time.Duration(sp.DurUS) * time.Microsecond
		}
	}
	for _, want := range []string{"phase:setup", "phase:offline", "phase:online"} {
		if !seen[want] {
			t.Errorf("missing %s span", want)
		}
	}
	if root == nil {
		t.Fatal("missing protocol root span")
	}

	// Phase spans must account for the run's wall clock within 5%.
	diff := wall - phaseSum
	if diff < 0 {
		diff = -diff
	}
	if diff > wall/20 {
		t.Errorf("phase spans sum to %v, wall clock %v (diff %v > 5%%)", phaseSum, wall, diff)
	}

	// The meter bridge: the root span covers every posting of the run.
	if root.Bytes != res.Report.Total {
		t.Errorf("root span bytes = %d, report total = %d", root.Bytes, res.Report.Total)
	}
	if root.Postings != res.Report.Postings {
		t.Errorf("root span postings = %d, report = %d", root.Postings, res.Report.Postings)
	}

	// Committee-member spans carry worker attribution.
	var attributed bool
	for _, sp := range spans {
		if sp.Name == "member" && sp.Worker >= 0 {
			attributed = true
			break
		}
	}
	if !attributed {
		t.Error("no worker-attributed member span")
	}

	// Per-gate-batch spans exist for packing and reconstruction.
	for _, want := range []string{"pack-batch", "reconstruct-batch", "mu-layer", "committee:beaver-a"} {
		found := false
		for _, sp := range spans {
			if sp.Name == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %q span", want)
		}
	}

	// The Chrome export is loadable: valid JSON, complete events only.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Ts  *int64 `json:"ts"`
			Dur *int64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Errorf("chrome trace has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Ts == nil || ev.Dur == nil {
			t.Fatalf("malformed trace event: %+v", ev)
		}
	}

	// Worker-pool metrics populated.
	snap := reg.Snapshot()
	if snap.Counters["core.pool.tasks"] == 0 {
		t.Error("core.pool.tasks counter never incremented")
	}
	if snap.Counters["core.pool.busy_ns"] == 0 {
		t.Error("core.pool.busy_ns counter never incremented")
	}
	if snap.Gauges["core.pool.workers"] != int64(params.EffectiveWorkers()) {
		t.Errorf("core.pool.workers = %d, want %d",
			snap.Gauges["core.pool.workers"], params.EffectiveWorkers())
	}
	if snap.Histograms["core.pool.task_ns"].Count == 0 {
		t.Error("core.pool.task_ns histogram empty")
	}
}

// TestTelemetryStepSpansReportOpenings pins the two ints every committee step
// span carries beside members/verified: openings, the partial decryptions
// each member computes in the step, and values, the slots they carry — the
// achieved packing factor is their ratio. On 510-bit openings: 96 ε/δ of 66
// bits go 7 to an opening; each client's 8 input λ's of 65 bits take 2 and
// each of the 3·12 layer members' 6 batches one per batch (129 + 129 + 194
// bits); the 16 outputs take 3. KFF secrets are never packed; committees
// without tsk open nothing.
func TestTelemetryStepSpansReportOpenings(t *testing.T) {
	circ, err := circuit.WideMul(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{
		0: {2, 3, 4, 5, 2, 3, 4, 5},
		1: {6, 7, 2, 3, 6, 7, 2, 3},
	})
	got := stepOpenings(t, simParams(12, 2, 3, nil), circ, in)
	want := map[string][2]int64{
		"beaver-a": {}, "beaver-bc": {}, "wire-randomness": {},
		"offdec-open":             {14, 96},
		"steps-5-6":               {4 + 3*12*6, 16 + 3*12*18},
		"tsk-bridge":              {},
		"future-key-distribution": {3*12 + 2, 3*12 + 2},
		"mu-layer1":               {}, "mu-layer2": {}, "mu-layer3": {},
		"output": {3, 16},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("step spans report openings/values %v, want %v", got, want)
	}
}

// TestTelemetryLoggerCarriesSpanIDs pins satellite coverage: with Logger
// and Trace both set, phase and offline-step events carry the span ID,
// and the offline driver now logs its steps.
func TestTelemetryLoggerCarriesSpanIDs(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	params := simParams(6, 1, 2, nil)
	params.Logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	params.Trace = telemetry.NewTracer()
	proto, err := New(params, circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}})
	if _, err := proto.Run(in); err != nil {
		t.Fatal(err)
	}

	wantMsgs := map[string]bool{
		"yosompc: setup phase starting":   false,
		"yosompc: offline phase starting": false,
		"yosompc: offline step starting":  false,
		"yosompc: offline step complete":  false,
		"yosompc: online phase starting":  false,
		"yosompc: committee spoke":        false,
	}
	dec := json.NewDecoder(&logBuf)
	for dec.More() {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		msg, _ := line["msg"].(string)
		if _, tracked := wantMsgs[msg]; !tracked {
			continue
		}
		id, ok := line["span"].(float64)
		if !ok || id == 0 {
			t.Errorf("log event %q missing span ID: %v", msg, line)
		}
		wantMsgs[msg] = true
	}
	for msg, seen := range wantMsgs {
		if !seen {
			t.Errorf("expected log event %q never emitted", msg)
		}
	}
}

// TestTelemetryDisabledRunUnchanged: a run with nil Trace/Metrics still
// works and the nil logger path stays silent (no spans leak into logs).
func TestTelemetryDisabledRunUnchanged(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	params := simParams(6, 1, 2, nil)
	proto, err := New(params, circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}})
	res, err := proto.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs[0]) != 1 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

// TestTelemetryTableCacheCounters: every TEnc of a real-backend run reads
// its randomizer off a fixed-base table, so the run's registry sees table
// hits and no miss (nothing in an honest run goes through the promoting
// cache); a Sim run touches neither counter.
func TestTelemetryTableCacheCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("real-crypto end-to-end in -short mode")
	}
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {3, 5}, 1: {7, 11}})
	counters := func(params Params) (hits, misses int64) {
		reg := telemetry.NewRegistry()
		params.Metrics = reg
		runAndCompare(t, params, circ, in)
		return reg.Counter("modexp.table_cache_hits").Value(), reg.Counter("modexp.table_cache_misses").Value()
	}
	if hits, misses := counters(realParams(t, 5, 1, 2, nil)); hits == 0 || misses != 0 {
		t.Errorf("real backend: %d table hits, %d misses; want hits > 0 and no miss", hits, misses)
	}
	if hits, misses := counters(simParams(6, 1, 2, nil)); hits != 0 || misses != 0 {
		t.Errorf("sim backend: %d table hits, %d misses; want 0 of 0", hits, misses)
	}
}
