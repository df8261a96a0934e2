package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"yosompc/internal/circuit"
	"yosompc/internal/telemetry"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// TestTelemetryPhaseSpansCoverWallClock pins the tracing acceptance
// contract: a traced small-committee run produces a Chrome-loadable trace
// whose setup/offline/online phase spans sum to within 5% of the measured
// wall clock, with board bytes bridged onto the spans and worker-pool
// metrics populated. Only the time outside the phase spans counts against
// the bound, and a descheduling there costs a few milliseconds however long
// the run, so the run is made long enough (≈ 250 ms on a 2-CPU box) that
// such a pause stays well inside 5 %.
func TestTelemetryPhaseSpansCoverWallClock(t *testing.T) {
	circ, err := circuit.WideMul(1024, 3)
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
	in := propertyInputs(circ, 1)
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
	for _, want := range []string{"pack-batch", "reconstruct-batch", "mu-layer", "committee:beaver-bc"} {
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
// achieved packing factor is their ratio. The run extracts m′ = 5 values
// per contribution position (slotpack.ListsOf), so on 510-bit openings:
// 48 ε of 78 bits go 6 to an opening; each client's 8 input λ's of 77 bits
// take 2 and the 16 outputs 3, sealed in the same OffDec step; each of the
// 3·12 layer members' 6 batches takes one group per batch (141 + 141 + 217
// bits), sealed by OffRe. KFF secrets are never packed; committees without
// tsk open nothing.
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
		"beaver-bc": {}, "wire-randomness": {},
		"offdec-open":             {8 + 4 + 3, 48 + 16 + 16},
		"step-6":                  {3 * 12 * 6, 3 * 12 * 18},
		"future-key-distribution": {3 * 12, 3 * 12},
		"mu-layer1":               {}, "mu-layer2": {}, "mu-layer3": {},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("step spans report openings/values %v, want %v", got, want)
	}
}

// TestTelemetryReencryptStepOnEveryCircuit: the offline step span
// offline:reencrypt-to-kffs, which the benchmark reads as
// core.offline_reencrypt_s, opens once on every circuit, and OffRe's
// committee step runs inside it where OffRe is formed: WideMul(16, 1) at
// n = 16 under a 2048-bit key has no layer with KFFs, mixedLayers' first
// layer at n = 10 under a 512-bit key has them.
func TestTelemetryReencryptStepOnEveryCircuit(t *testing.T) {
	wide, err := circuit.WideMul(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		circ      *circuit.Circuit
		n, t, k   int
		bits      int
		withOffRe bool
	}{
		{"no KFF layer", wide, 16, 3, 4, 2048, false},
		{"mixed layers", mixedLayers(t), 10, 2, 2, 512, true},
	} {
		params := simParams(tc.n, tc.t, tc.k, nil)
		params.TE = tte.NewSim(tc.bits)
		params.Trace = telemetry.NewTracer()
		runAndCompare(t, params, tc.circ, propertyInputs(tc.circ, 4))
		spans := params.Trace.Spans()
		var steps []telemetry.SpanRecord
		offRe := -1
		for i, sp := range spans {
			switch sp.Name {
			case "offline:reencrypt-to-kffs":
				steps = append(steps, sp)
			case "committee:step-6":
				offRe = i
			}
		}
		if len(steps) != 1 {
			t.Errorf("%s: %d offline:reencrypt-to-kffs spans, want 1", tc.name, len(steps))
			continue
		}
		step := steps[0]
		within := func(sp telemetry.SpanRecord) bool {
			return sp.StartUS >= step.StartUS && sp.StartUS+sp.DurUS <= step.StartUS+step.DurUS
		}
		if (offRe >= 0) != tc.withOffRe || offRe >= 0 && !within(spans[offRe]) {
			t.Errorf("%s: OffRe's step found %v, inside the span %v; want found %v and inside", tc.name, offRe >= 0, offRe >= 0 && within(spans[offRe]), tc.withOffRe)
		}
	}
}

// TestTelemetryStepSpansCountExclusions: spans are the run's progress
// record. Under an adversary every phase has its span, and the roles the
// committee steps' spans count as unverified (members − verified) are
// exactly the run's Result.Excluded.
func TestTelemetryStepSpansCountExclusions(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	params := simParams(8, 2, 2, yoso.NewAdversary(1, 1, 91))
	params.Trace = telemetry.NewTracer()
	proto, err := New(params, circ, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := proto.Run(inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	phases, unverified := map[string]bool{}, int64(0)
	for _, sp := range params.Trace.Spans() {
		if strings.HasPrefix(sp.Name, "phase:") {
			phases[sp.Name] = true
		}
		if strings.HasPrefix(sp.Name, "committee:") {
			unverified += sp.Ints["members"] - sp.Ints["verified"]
		}
	}
	for _, name := range []string{"phase:setup", "phase:offline", "phase:online"} {
		if !phases[name] {
			t.Errorf("no %s span", name)
		}
	}
	if unverified == 0 || unverified != int64(len(res.Excluded)) {
		t.Errorf("step spans count %d unverified roles, Result.Excluded lists %d", unverified, len(res.Excluded))
	}
}

// TestTelemetryRobustLayerIsACommitteeStep: a robust μ layer runs through
// committee.Step like every other step, so it has its committee span. The
// span's verified counts the postings the readers decode: all but the
// fail-stop member's, the malicious member's garbage included. members −
// verified = excluded therefore holds for attested steps only, as
// TestTelemetryStepSpansCountExclusions assumes. Result.Excluded lists the
// fail-stop and the malicious member of every step, the layer's included.
// No layer takes KFFs, so no OffRe is formed.
func TestTelemetryRobustLayerIsACommitteeStep(t *testing.T) {
	circ, err := circuit.InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	params := simParams(14, 3, 2, yoso.NewAdversary(1, 1, 97))
	params.Robust = true
	params.Trace = telemetry.NewTracer()
	res := runAndCompare(t, params, circ, inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}}))
	var layer []map[string]int64
	for _, sp := range params.Trace.Spans() {
		if sp.Name == "committee:mu-layer1" {
			layer = append(layer, sp.Ints)
		}
	}
	if len(layer) != 1 || layer[0]["members"] != 14 || layer[0]["verified"] != 13 {
		t.Errorf("committee:mu-layer1 spans %v, want one with 14 members and 13 verified", layer)
	}
	want := []string{
		"offR/5@wire-randomness (fail-stop)", "offR/9@wire-randomness (malicious)",
		"offB/3@beaver-bc (fail-stop)", "offB/9@beaver-bc (malicious)",
		"offDec/7@offdec-open (malicious)", "offDec/10@offdec-open (fail-stop)",
		"onC1/11@future-key-distribution (malicious)", "onC1/13@future-key-distribution (fail-stop)",
		"on-layer1/3@mu-layer1 (fail-stop)", "on-layer1/14@mu-layer1 (malicious)",
	}
	if !reflect.DeepEqual(res.Excluded, want) {
		t.Errorf("Excluded = %q, want %q", res.Excluded, want)
	}
}

// TestTelemetryDisabledRunUnchanged: a run with nil Trace/Metrics still
// works.
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
// hits and no miss (nothing counts one); a Sim run touches neither
// counter.
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
