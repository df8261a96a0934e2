package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// ProgressFunc supplies the current protocol-progress document for the
// /progress endpoint — typically a monitor's Snapshot method. It must be
// safe for concurrent use.
type ProgressFunc func() any

// HandlerWithProgress returns the HTTP exposition surface:
//
//	/metrics       registry snapshot as JSON (histograms carry p50/p95/p99)
//	/trace         completed spans as a Chrome trace_event document
//	/trace.jsonl   completed spans as JSONL
//	/progress      protocol progress as JSON (empty object without a monitor)
//	/debug/vars    expvar (Go runtime memstats and cmdline)
//	/debug/pprof/  net/http/pprof profiles (heap, goroutine, CPU, ...)
//
// reg, tr and progress may be nil; their endpoints then serve empty
// documents. The handler is mounted behind an explicit flag by the
// commands — profiling endpoints are never on by default.
func HandlerWithProgress(reg *Registry, tr *Tracer, progress ProgressFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Snapshot())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = tr.WriteChromeTrace(w)
	})
	mux.HandleFunc("/trace.jsonl", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		_ = tr.WriteJSONL(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if progress == nil {
			_, _ = w.Write([]byte("{}\n"))
			return
		}
		_ = enc.Encode(progress())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// HTTPServer is the telemetry HTTP surface with an orderly stop path: it
// owns its listener and serve goroutine, and Shutdown/Close release both.
type HTTPServer struct {
	srv *http.Server
	ln  net.Listener

	wg       sync.WaitGroup
	serveErr error // written by the serve goroutine, read after wg.Wait

	mu     sync.Mutex
	closed bool
}

// ListenAndServe binds addr (e.g. "127.0.0.1:0") and serves h on it in the
// background. Stop with Shutdown (graceful) or Close (immediate).
func ListenAndServe(addr string, h http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &HTTPServer{srv: &http.Server{Handler: h}, ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Serve returns http.ErrServerClosed after Shutdown/Close; anything
		// else is a real serve failure surfaced by Shutdown.
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.mu.Lock()
			s.serveErr = err
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Shutdown stops accepting connections, waits for in-flight requests to
// drain (bounded by ctx), then waits for the serve goroutine to exit. If
// ctx expires first the remaining connections are closed immediately. It
// returns the first error among the drain, the serve loop and the listener
// close, and is idempotent.
func (s *HTTPServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Context expired: fall back to hard close so Wait cannot hang on
		// a stuck connection.
		_ = s.srv.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		err = s.serveErr
	}
	return err
}

// Close stops the server immediately, dropping in-flight connections, and
// waits for the serve goroutine to exit.
func (s *HTTPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.srv.Close()
	s.wg.Wait()
	return err
}
