package yosompc

import (
	"net"
	"reflect"
	"strings"
	"testing"

	"yosompc/internal/transport"
)

func TestFacadeRunSim(t *testing.T) {
	circ, err := InnerProduct(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 8, T: 2, K: 2, Backend: Sim}
	res, err := Run(cfg, circ, map[int][]Value{
		0: Values(1, 2, 3, 4),
		1: Values(5, 6, 7, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0][0] != NewValue(70) {
		t.Errorf("inner product = %v, want 70", res.Outputs[0][0])
	}
	if res.Report.Total == 0 {
		t.Error("empty communication report")
	}
}

func TestFacadeRunReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real crypto in -short mode")
	}
	circ, err := InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 5, T: 1, K: 2, Backend: Real}
	res, err := Run(cfg, circ, map[int][]Value{0: Values(2, 3), 1: Values(4, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0][0] != NewValue(23) {
		t.Errorf("inner product = %v, want 23", res.Outputs[0][0])
	}
}

func TestFacadeBaselineMatchesCore(t *testing.T) {
	circ, err := Statistics(3)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[int][]Value{0: Values(5), 1: Values(7), 2: Values(9)}
	coreRes, err := Run(Config{N: 8, T: 2, K: 2, Backend: Sim}, circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := RunBaseline(Config{N: 5, T: 2, Backend: Sim}, circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for client := 0; client < 3; client++ {
		for i := range coreRes.Outputs[client] {
			if coreRes.Outputs[client][i] != baseRes.Outputs[client][i] {
				t.Errorf("client %d output %d: core %v vs baseline %v",
					client, i, coreRes.Outputs[client][i], baseRes.Outputs[client][i])
			}
		}
	}
}

func TestFacadeAdversary(t *testing.T) {
	circ, err := InnerProduct(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 10, T: 2, K: 2, Backend: Sim, Malicious: 2, FailStops: 1, Seed: 5}
	res, err := Run(cfg, circ, map[int][]Value{0: Values(1, 2, 3), 1: Values(4, 5, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0][0] != NewValue(32) {
		t.Errorf("inner product = %v, want 32 under adversary", res.Outputs[0][0])
	}
	if len(res.Excluded) == 0 {
		t.Error("no exclusions recorded")
	}
}

func TestFacadeSortition(t *testing.T) {
	r, err := AnalyzeSortition(1000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 28 {
		t.Errorf("k = %d, want 28", r.K)
	}
	cfg := ConfigFromSortition(r, false)
	if cfg.N != 949 || cfg.K != 28 {
		t.Errorf("config = %+v", cfg)
	}
	half := ConfigFromSortition(r, true)
	if half.K != 14 {
		t.Errorf("fail-stop k = %d, want 14", half.K)
	}
	if !strings.Contains(Table1(), "949") {
		t.Error("Table1 output missing first feasible row")
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := NewCircuit()
	x := b.Input(0)
	y := b.Input(1)
	b.Output(b.Mul(b.Add(x, y), b.Sub(x, y)), 0) // x² − y²
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{N: 6, T: 1, K: 1, Backend: Sim}, circ,
		map[int][]Value{0: Values(10), 1: Values(6)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0][0] != NewValue(64) {
		t.Errorf("x²−y² = %v, want 64", res.Outputs[0][0])
	}
}

func TestFacadeInvalidConfig(t *testing.T) {
	circ, err := InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{N: 3, T: 2, K: 2, Backend: Sim}, circ, nil); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := RunBaseline(Config{N: 3, T: 2, Backend: Sim}, circ, nil); err == nil {
		t.Error("invalid baseline config accepted")
	}
}

func TestFacadePrepareExecute(t *testing.T) {
	circ, err := Statistics(3)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := Prepare(Config{N: 8, T: 2, K: 2, Backend: Sim}, circ)
	if err != nil {
		t.Fatal(err)
	}
	if prepared.OfflineReport().Total == 0 {
		t.Error("no preprocessing bytes")
	}
	res, err := prepared.Execute(map[int][]Value{0: Values(2), 1: Values(4), 2: Values(6)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0][0] != NewValue(12) {
		t.Errorf("sum = %v, want 12", res.Outputs[0][0])
	}
	if _, err := prepared.Execute(nil); err == nil {
		t.Error("preprocessing reuse accepted")
	}
}

func TestFacadeMirror(t *testing.T) {
	circ, err := InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[int][]Value{0: Values(1, 2), 1: Values(3, 4)}
	// Both ways through the facade must reach the mirror: the one-shot Run
	// and the deployment-realistic Prepare → Execute split.
	paths := map[string]func(Config) (*Result, error){
		"Run": func(cfg Config) (*Result, error) { return Run(cfg, circ, inputs) },
		"PrepareExecute": func(cfg Config) (*Result, error) {
			prep, err := Prepare(cfg, circ)
			if err != nil {
				return nil, err
			}
			return prep.Execute(inputs)
		},
	}
	for name, run := range paths {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			server := transport.Serve(ln)
			defer server.Close()

			res, err := run(Config{N: 6, T: 1, K: 1, Backend: Sim, MirrorAddr: server.Addr()})
			if err != nil {
				t.Fatal(err)
			}
			// Every local posting reached the remote board with identical
			// byte accounting.
			if int64(server.Len()) != res.Report.Postings {
				t.Errorf("remote postings %d, local %d", server.Len(), res.Report.Postings)
			}
			// The server meters what it measures on received payloads, never
			// a claimed size — so the full per-phase, per-category breakdown
			// must reproduce the in-process report exactly.
			if remote := server.Report(); !reflect.DeepEqual(remote, res.Report) {
				t.Errorf("remote report %+v\nlocal report %+v", remote, res.Report)
			}
			// And the mirrored entries carry the real encoded bytes, not stubs.
			var payloadSum int64
			for _, e := range server.Entries(0) {
				if e.Size != len(e.Payload) {
					t.Fatalf("entry #%d: Size %d but %d payload bytes", e.Seq, e.Size, len(e.Payload))
				}
				payloadSum += int64(len(e.Payload))
			}
			if payloadSum != res.Report.Total {
				t.Errorf("entry payloads sum to %d bytes, local report says %d", payloadSum, res.Report.Total)
			}
		})
	}
}

func TestFacadeMonitor(t *testing.T) {
	circ, err := InnerProduct(2)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor()
	reg := NewMetricsRegistry()
	cfg := Config{N: 7, T: 1, K: 2, Backend: Sim, Proc: "facade-test", Monitor: mon, Metrics: reg}
	if _, err := Run(cfg, circ, map[int][]Value{0: Values(1, 2), 1: Values(3, 4)}); err != nil {
		t.Fatal(err)
	}
	s := mon.Snapshot()
	if !s.Complete {
		t.Fatalf("monitored run not complete: %+v", s)
	}
	for _, c := range s.Committees {
		if c.Proc != "facade-test" {
			t.Errorf("committee %s proc = %q", c.Committee, c.Proc)
		}
	}
	snap := reg.Snapshot()
	if snap.Gauges["monitor.speakers_posted"] == 0 {
		t.Errorf("monitor metrics not registered: %+v", snap.Gauges)
	}
}
