package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// The telemetry HTTP server serves the exposition surface and has an
// orderly stop path: after Shutdown the listener is released and new
// connections are refused.
func TestHTTPServerServeAndShutdown(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up").Inc()
	srv, err := ListenAndServe("127.0.0.1:0", HandlerWithProgress(reg, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), `"up": 1`) {
		t.Fatalf("GET /metrics = %d, %s", code, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
	// Idempotent: a second Shutdown (and a Close) are clean no-ops.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close after Shutdown: %v", err)
	}
}

// Shutdown with an already-expired context still terminates: in-flight
// connections are hard-closed instead of waited on forever.
func TestHTTPServerShutdownExpiredContext(t *testing.T) {
	release := make(chan struct{})
	handled := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/hang", func(w http.ResponseWriter, _ *http.Request) {
		close(handled)
		<-release // parked until the test releases it
	})
	srv, err := ListenAndServe("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/hang")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-handled
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Shutdown with expired context and a hung request returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung on an in-flight request despite expired context")
	}
}

// Close stops the server immediately and is idempotent.
func TestHTTPServerClose(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", HandlerWithProgress(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// /progress serves the attached monitor's snapshot, and an empty object
// when no progress source is wired.
func TestProgressEndpoint(t *testing.T) {
	progress := func() any {
		return map[string]any{"complete": true, "committees": 9}
	}
	srv, err := ListenAndServe("127.0.0.1:0", HandlerWithProgress(nil, nil, progress))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, "http://"+srv.Addr()+"/progress")
	if code != http.StatusOK {
		t.Fatalf("GET /progress = %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("progress not JSON: %v\n%s", err, body)
	}
	if doc["complete"] != true || doc["committees"] != float64(9) {
		t.Errorf("progress doc = %v", doc)
	}

	bare, err := ListenAndServe("127.0.0.1:0", HandlerWithProgress(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	code, body = get(t, "http://"+bare.Addr()+"/progress")
	if code != http.StatusOK || strings.TrimSpace(string(body)) != "{}" {
		t.Errorf("GET /progress without monitor = %d, %q", code, body)
	}
}
