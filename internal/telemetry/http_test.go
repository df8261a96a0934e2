package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("board.posts").Add(3)
	tr := NewTracer()
	tr.Start("phase").End()

	srv := httptest.NewServer(HandlerWithProgress(reg, tr, nil))
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if snap.Counters["board.posts"] != 3 {
		t.Fatalf("/metrics counters = %v", snap.Counters)
	}

	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/trace"), &doc); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("/trace events = %d, want 1", len(doc.TraceEvents))
	}

	var rec SpanRecord
	if err := json.Unmarshal(get("/trace.jsonl"), &rec); err != nil {
		t.Fatalf("/trace.jsonl: %v", err)
	}
	if rec.Name != "phase" {
		t.Fatalf("/trace.jsonl span = %+v", rec)
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing memstats")
	}

	if len(get("/debug/pprof/")) == 0 {
		t.Fatal("/debug/pprof/ empty")
	}
}

func TestHandlerNilBackends(t *testing.T) {
	srv := httptest.NewServer(HandlerWithProgress(nil, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if !json.Valid(b) {
		t.Fatalf("/metrics with nil registry not JSON: %q", b)
	}
}
